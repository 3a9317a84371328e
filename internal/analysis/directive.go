package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectivePrefix introduces every otfairlint escape comment. The syntax
// is the standard Go tool-directive form (no space after //):
//
//	//otfair:<name> <reason>
//
// The reason is mandatory: a suppression that does not say why is a
// contract erosion, and both the driver and the directive meta-test
// reject it.
const DirectivePrefix = "otfair:"

// Directive names understood by the suite. Anything else spelled
// //otfair:... is reported as unknown by the driver so typos cannot
// silently disable a check.
const (
	// DirNondetOK suppresses mapiter and nondetsource findings —
	// scrape-time, ops and commutative-fold sites where iteration order or
	// a wall-clock read provably cannot reach a served byte.
	DirNondetOK = "nondet-ok"
	// DirCardinalityOK suppresses metriclabel findings — label values that
	// are dynamic but bounded by construction (bound-artefact fingerprints,
	// server-chosen status codes, process-constant build identity).
	DirCardinalityOK = "cardinality-ok"
	// DirNilRecvOK suppresses hookrecv findings — internal helper methods
	// only reachable after an exported method's guard.
	DirNilRecvOK = "nilrecv-ok"
	// DirNaNInputOK suppresses naninput findings — float fields that are
	// outputs or debug knobs, not solver inputs.
	DirNaNInputOK = "naninput-ok"
	// DirNilSafe is not a suppression but a marker: it declares a type's
	// pointer-receiver methods nil-receiver safe, opting the type into
	// hookrecv enforcement. The reason documents why nil receivers occur.
	DirNilSafe = "nilsafe"
	// DirTestOnlyOK keeps an exported internal/ function or method that
	// only tests call — a helper other packages' tests share — past the
	// module-wide TestNoTestOnlyExports guard.
	DirTestOnlyOK = "testonly-ok"
)

// KnownDirectives is the closed set of valid directive names.
var KnownDirectives = map[string]bool{
	DirNondetOK:      true,
	DirCardinalityOK: true,
	DirNilRecvOK:     true,
	DirNaNInputOK:    true,
	DirNilSafe:       true,
	DirTestOnlyOK:    true,
}

// A Directive is one parsed //otfair:* comment.
type Directive struct {
	Name   string
	Reason string
	Pos    token.Pos
}

// ParseDirective extracts the directive from a single comment, if any.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//"+DirectivePrefix)
	if !ok {
		return Directive{}, false
	}
	name, reason, _ := strings.Cut(text, " ")
	return Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// CommentGroupDirective returns the named directive if the comment group
// carries one.
func CommentGroupDirective(cg *ast.CommentGroup, name string) (Directive, bool) {
	if cg == nil {
		return Directive{}, false
	}
	for _, c := range cg.List {
		if d, ok := ParseDirective(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// A Suppressor indexes a package's directives by file and line so the
// driver (and the fixture harness) can apply the escape-hatch rule: a
// finding is suppressed by a matching directive on its own line or on the
// line immediately above.
type Suppressor struct {
	fset *token.FileSet
	// byLine maps file name -> line -> directives on that line.
	byLine map[string]map[int][]Directive
	all    []Directive
}

// NewSuppressor scans every comment in files.
func NewSuppressor(fset *token.FileSet, files []*ast.File) *Suppressor {
	s := &Suppressor{fset: fset, byLine: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := ParseDirective(c)
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				lines := s.byLine[p.Filename]
				if lines == nil {
					lines = make(map[int][]Directive)
					s.byLine[p.Filename] = lines
				}
				lines[p.Line] = append(lines[p.Line], d)
				s.all = append(s.all, d)
			}
		}
	}
	return s
}

// Suppressed reports whether a finding at pos is covered by the named
// directive (same line or the line above).
func (s *Suppressor) Suppressed(name string, pos token.Pos) bool {
	p := s.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range s.byLine[p.Filename][line] {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// All returns every directive seen, for driver-side validation (unknown
// names, empty reasons).
func (s *Suppressor) All() []Directive { return s.all }
