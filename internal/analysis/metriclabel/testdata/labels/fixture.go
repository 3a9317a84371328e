// Fixture for metriclabel: labelled obs.Registry registrations with
// bounded and unbounded label arguments.
package fixture

import (
	"strconv"

	"otfair/internal/obs"
)

const fixedStage = "plan"

var stages = []string{"ingest", "solve", "emit"}

type opDef struct{ name, kind string }

var ops = []opDef{
	{name: "get", kind: "read"},
	{name: "put", kind: "write"},
}

var outcomes = map[string]string{
	"ok":   "served",
	"fail": "rejected",
}

func register(reg *obs.Registry, userInput string, n int) {
	// Bounded forms: constants, closed literal collections, struct fields
	// of literal elements, constant-bounded loop indices, String() of a
	// bounded value, concatenation of bounded parts.
	reg.CounterL("c_const", "h", "stage", fixedStage)
	reg.CounterL("c_concat", "h", "stage", "pre_"+fixedStage)
	for _, s := range stages {
		reg.CounterL("c_range", "h", "stage", s)
	}
	for _, op := range ops {
		reg.GaugeL("g_field", "h", "op", op.name, "kind", op.kind)
	}
	for k, v := range outcomes {
		reg.CounterL("c_map", "h", "outcome", k, "disposition", v)
	}
	for i := 0; i < 4; i++ {
		reg.CounterL("c_bin", "h", "bin", strconv.Itoa(i))
	}

	// Unbounded forms: request input, derived ints, spread label lists.
	reg.CounterL("c_input", "h", "stage", userInput)                                   // want "metric label value userInput is not statically bounded"
	reg.CounterL("c_key", "h", userInput, "v")                                         // want "metric label key userInput is not statically bounded"
	reg.CounterL("c_itoa", "h", "size", strconv.Itoa(n))                               // want "metric label value strconv.Itoa\(n\) is not statically bounded"
	reg.HistogramL("h_input", "h", nil, "route", userInput)                            // want "metric label value userInput is not statically bounded"
	reg.GaugeFunc("gf_input", "h", func() float64 { return 0 }, "artefact", userInput) // want "metric label value userInput is not statically bounded"
	labels := []string{"stage", userInput}
	reg.CounterL("c_spread", "h", labels...) // want "label list spread into reg.CounterL cannot be statically bounded"

	// A parameter reassigned to a constant is still caller-controlled on
	// entry: the assignment must not launder it.
	if userInput == "" {
		userInput = "unknown"
	}
	reg.CounterL("c_laundered", "h", "stage", userInput) // want "metric label value userInput is not statically bounded"

	// Directive escape: dynamic but bounded by construction.
	//otfair:cardinality-ok status codes are a closed server-chosen set
	reg.CounterL("c_ok", "h", "code", userInput)
}

// Feed-shaped registrations (researchfeed): the closed outcome and
// breaker-state sets are bounded; a content fingerprint as a label value
// is one series per distinct research set and must be flagged.
var feedOutcomes = []string{"ok", "not_modified", "error", "breaker_open"}

var breakerStates = map[string]string{
	"closed": "0", "open": "1", "half_open": "2",
}

func registerFeed(reg *obs.Registry, fingerprint string) {
	for _, o := range feedOutcomes {
		reg.CounterL("f_fetches", "h", "outcome", o)
	}
	for name, code := range breakerStates {
		reg.CounterL("f_breaker", "h", "state", name, "code", code)
	}
	reg.CounterL("f_by_content", "h", "fingerprint", fingerprint) // want "metric label value fingerprint is not statically bounded"
}
