package dataset

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"otfair/internal/rng"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustTable(2, []string{"age", "hours"})
	recs := []Record{
		{X: []float64{25, 40}, S: 0, U: 0},
		{X: []float64{35, 45}, S: 1, U: 0},
		{X: []float64{45, 50}, S: 0, U: 1},
		{X: []float64{55, 38}, S: 1, U: 1},
		{X: []float64{30, 42}, S: SUnknown, U: 1},
	}
	if err := tbl.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestRecordValidate(t *testing.T) {
	ok := Record{X: []float64{1, 2}, S: 1, U: 0}
	if err := ok.Validate(2); err != nil {
		t.Error(err)
	}
	cases := []Record{
		{X: []float64{1}, S: 0, U: 0},              // wrong dim
		{X: []float64{1, 2}, S: 2, U: 0},           // bad s
		{X: []float64{1, 2}, S: 0, U: 5},           // bad u
		{X: []float64{math.NaN(), 2}, S: 0, U: 0},  // NaN
		{X: []float64{math.Inf(1), 2}, S: 0, U: 0}, // Inf
	}
	for i, r := range cases {
		if err := r.Validate(2); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	unknown := Record{X: []float64{1, 2}, S: SUnknown, U: 1}
	if err := unknown.Validate(2); err != nil {
		t.Errorf("SUnknown rejected: %v", err)
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(0, nil); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewTable(2, []string{"a"}); err == nil {
		t.Error("name count mismatch accepted")
	}
	tbl, err := NewTable(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Names()[0] != "x1" || tbl.Names()[1] != "x2" {
		t.Errorf("default names = %v", tbl.Names())
	}
}

func TestAppendRejectsBadRecord(t *testing.T) {
	tbl := MustTable(2, nil)
	if err := tbl.Append(Record{X: []float64{1}, S: 0, U: 0}); err == nil {
		t.Error("bad record accepted")
	}
	if tbl.Len() != 0 {
		t.Error("failed append mutated table")
	}
}

func TestPartition(t *testing.T) {
	tbl := sampleTable(t)
	labelled, unlabelled := tbl.Partition()
	if len(labelled) != 4 {
		t.Fatalf("labelled groups = %d", len(labelled))
	}
	if got := labelled[Group{U: 0, S: 1}]; len(got) != 1 || got[0] != 1 {
		t.Errorf("group (0,1) = %v", got)
	}
	if got := unlabelled[1]; len(got) != 1 || got[0] != 4 {
		t.Errorf("unlabelled u=1 = %v", got)
	}
}

func TestGroupAndUColumns(t *testing.T) {
	tbl := sampleTable(t)
	col := tbl.GroupColumn(Group{U: 1, S: 0}, 0)
	if len(col) != 1 || col[0] != 45 {
		t.Errorf("GroupColumn = %v", col)
	}
	// UColumn pools both s values plus unknown-s records with that u.
	ucol := tbl.UColumn(1, 1)
	if len(ucol) != 3 {
		t.Errorf("UColumn = %v", ucol)
	}
}

func TestColumnPanicsOutOfRange(t *testing.T) {
	tbl := sampleTable(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad feature index")
		}
	}()
	tbl.GroupColumn(Group{U: 0, S: 0}, 5)
}

func TestSplitSizesAndDisjoint(t *testing.T) {
	tbl := MustTable(1, nil)
	for i := 0; i < 100; i++ {
		s := i % 2
		u := (i / 2) % 2
		if err := tbl.Append(Record{X: []float64{float64(i)}, S: s, U: u}); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(5)
	research, archive, err := tbl.Split(r, 30)
	if err != nil {
		t.Fatal(err)
	}
	if research.Len() != 30 || archive.Len() != 70 {
		t.Fatalf("sizes %d/%d", research.Len(), archive.Len())
	}
	seen := make(map[float64]bool)
	for _, rec := range research.Records() {
		seen[rec.X[0]] = true
	}
	for _, rec := range archive.Records() {
		if seen[rec.X[0]] {
			t.Fatal("research and archive overlap")
		}
	}
	if _, _, err := tbl.Split(r, 101); err == nil {
		t.Error("oversized research accepted")
	}
	if _, _, err := tbl.Split(r, -1); err == nil {
		t.Error("negative research size accepted")
	}
}

func TestDropS(t *testing.T) {
	tbl := sampleTable(t)
	dropped := tbl.DropS()
	for _, r := range dropped.Records() {
		if r.S != SUnknown {
			t.Fatal("DropS left a label")
		}
	}
	// Original untouched.
	if tbl.At(0).S != 0 {
		t.Error("DropS mutated original")
	}
}

func TestCloneIndependence(t *testing.T) {
	tbl := sampleTable(t)
	cp := tbl.Clone()
	cp.Records()[0].X[0] = 999
	if tbl.At(0).X[0] == 999 {
		t.Error("clone shares feature storage")
	}
}

func TestCountsAndFeatureMatrix(t *testing.T) {
	tbl := sampleTable(t)
	counts := tbl.Counts()
	if counts[Group{U: 1, S: SUnknown}] != 1 {
		t.Errorf("unknown-s count = %d", counts[Group{U: 1, S: SUnknown}])
	}
	fm := tbl.FeatureMatrix()
	if len(fm) != 5 || fm[2][0] != 45 {
		t.Errorf("feature matrix wrong: %v", fm)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() || back.Dim() != tbl.Dim() {
		t.Fatalf("round-trip shape %d/%d", back.Len(), back.Dim())
	}
	for i := range tbl.Records() {
		a, b := tbl.At(i), back.At(i)
		if a.S != b.S || a.U != b.U {
			t.Errorf("record %d labels: %+v vs %+v", i, a, b)
		}
		for k := range a.X {
			if a.X[k] != b.X[k] {
				t.Errorf("record %d feature %d: %v vs %v", i, k, a.X[k], b.X[k])
			}
		}
	}
	if back.Names()[0] != "age" {
		t.Errorf("names lost: %v", back.Names())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",               // no header
		"a,b,c\n1,0,2",   // bad header
		"s,u\n0,1",       // no features
		"s,u,x\nbad,0,1", // bad s
		"s,u,x\n0,bad,1", // bad u
		"s,u,x\n0,0,bad", // bad feature
		"s,u,x\n0,0,1,9", // extra field
		"s,u,x\n7,0,1",   // s out of range
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestReadCSVUnknownSForms(t *testing.T) {
	in := "s,u,x\n,1,2.5\n?,0,3.5\n"
	tbl, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.At(0).S != SUnknown || tbl.At(1).S != SUnknown {
		t.Errorf("unknown s not parsed: %+v", tbl.Records())
	}
}

func TestSliceStream(t *testing.T) {
	tbl := sampleTable(t)
	s := NewSliceStream(tbl)
	if s.Dim() != 2 {
		t.Errorf("dim = %d", s.Dim())
	}
	n := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != tbl.Len() {
		t.Errorf("streamed %d of %d", n, tbl.Len())
	}
}

func TestCSVStream(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := NewCSVStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Errorf("collected %d of %d", back.Len(), tbl.Len())
	}
}

func TestCSVStreamBadHeader(t *testing.T) {
	if _, err := NewCSVStream(strings.NewReader("nope\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := NewCSVStream(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestCSVStreamPropagatesRowErrors(t *testing.T) {
	s, err := NewCSVStream(strings.NewReader("s,u,x\n0,0,oops\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err == nil || err == io.EOF {
		t.Errorf("bad row error = %v", err)
	}
}

func TestGroupsEnumeration(t *testing.T) {
	gs := Groups()
	if len(gs) != 4 {
		t.Fatalf("groups = %v", gs)
	}
	if gs[0].String() != "(u=0,s=0)" {
		t.Errorf("String = %q", gs[0].String())
	}
}

// TestCSVErrorsNameTheRowsLine pins the line a CSV error reports: the
// physical line its row starts on, past blank lines, CRLF line ends and
// quoted fields that span lines — for ReadCSV and CSVStream alike, on
// rows the byte scanner reads and rows encoding/csv reads.
func TestCSVErrorsNameTheRowsLine(t *testing.T) {
	for _, c := range []struct {
		in, table, stream string
	}{
		{"s,u,x\n0,0,1\n\n\n0,0,bad\n",
			`dataset: line 5: bad feature 0 "bad"`,
			`dataset: line 5: bad feature 0 "bad"`},
		{"s,u,x\n0,0,1\n\n0,0\n",
			"dataset: line 4: record on line 4: wrong number of fields",
			"dataset: stream line 4: record on line 4: wrong number of fields"},
		{"s,u,x\n0,0,\"1\n\"\n\n0,0,bad\n",
			`dataset: line 5: bad feature 0 "bad"`,
			`dataset: line 5: bad feature 0 "bad"`},
		{"s,u,x\n0,0,1\n0,0,\"a\nb\"\n",
			`dataset: line 3: bad feature 0 "a\nb"`,
			`dataset: line 3: bad feature 0 "a\nb"`},
		{"s,u,x\n\n0,0,1\"\n",
			`dataset: line 3: parse error on line 3, column 6: bare " in non-quoted-field`,
			`dataset: stream line 3: parse error on line 3, column 6: bare " in non-quoted-field`},
		{"\ns,u,x\n0,\"0\",1\n\n0,0,\"1\n",
			`dataset: line 5: parse error on line 5, column 8: extraneous or missing " in quoted-field`,
			`dataset: stream line 5: parse error on line 5, column 8: extraneous or missing " in quoted-field`},
		{"s,u,x\r\n\r\n0,0,1\r\n\r\n3,0,1\r\n",
			"dataset: line 5: dataset: invalid S label 3",
			""},
	} {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil || err.Error() != c.table {
			t.Errorf("ReadCSV(%q) = %v, want %s", c.in, err, c.table)
		}
		s, err := NewCSVStream(strings.NewReader(c.in))
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, err = s.Next()
		}
		if want := c.stream; want == "" && err != io.EOF || want != "" && err.Error() != want {
			t.Errorf("CSVStream(%q) = %v, want %q", c.in, err, want)
		}
	}
}

// TestCSVStreamNextAllocs pins the byte scanner's allocation budget:
// draining 10 000 WriteCSV rows costs one feature chunk per 64 records and
// nothing per record.
func TestCSVStreamNextAllocs(t *testing.T) {
	r := rng.New(7)
	tbl := MustTable(3, nil)
	for i := 0; i < 10000; i++ {
		rec := Record{X: []float64{r.Float64(), 100 * r.Float64(), -r.Float64()}, S: r.IntN(2), U: r.IntN(2)}
		if err := tbl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	n := 0
	allocs := testing.AllocsPerRun(5, func() {
		s, err := NewCSVStream(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for n = 0; ; n++ {
			if _, err := s.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	if n != tbl.Len() {
		t.Fatalf("streamed %d of %d records", n, tbl.Len())
	}
	if perRecord := allocs / float64(n); perRecord > 0.05 {
		t.Errorf("CSVStream.Next: %.3f allocations per record, want <= 0.05", perRecord)
	}
}

// TestCSVErrorsMidStreamKeepTheirLine puts each kind of row the one-pass
// scan hands back after 62 lines it takes (CRLF ends, a blank line, a
// quoted row, space around fields): the bad row must be reported at its
// physical line, 64, by ReadCSV, ReadResearchColumns and CSVStream.
func TestCSVErrorsMidStreamKeepTheirLine(t *testing.T) {
	head := "s,u,x,y\r\n" + strings.Repeat("0,1,1.25,-3.5\r\n", 40) + "\r\n\"1\",0,2,3\r\n" +
		strings.Repeat(" 1 , 0 , 2.5 , 4 \n", 20)
	tail := strings.Repeat("1,1,7,8\n", 5)
	for _, c := range []struct {
		row, table, stream string
	}{
		{"0,0,1e400,1",
			`dataset: line 64: bad feature 0 "1e400"`,
			`dataset: line 64: bad feature 0 "1e400"`},
		{"0,0,1,2,3",
			"dataset: line 64: record on line 64: wrong number of fields",
			"dataset: stream line 64: record on line 64: wrong number of fields"},
		{"0,x,1,2",
			`dataset: line 64: bad u "x"`,
			`dataset: line 64: bad u "x"`},
		{"0,0,1\t\v,zz",
			`dataset: line 64: bad feature 1 "zz"`,
			`dataset: line 64: bad feature 1 "zz"`},
		{"0,0,1\"x,2",
			`dataset: line 64: parse error on line 64, column 6: bare " in non-quoted-field`,
			`dataset: stream line 64: parse error on line 64, column 6: bare " in non-quoted-field`},
		{"12,0,1,2",
			"dataset: line 64: dataset: invalid S label 12",
			""},
	} {
		in := head + c.row + "\n" + tail
		if _, err := ReadCSV(strings.NewReader(in)); err == nil || err.Error() != c.table {
			t.Errorf("ReadCSV(... %q ...) = %v, want %s", c.row, err, c.table)
		}
		if _, err := ReadResearchColumns(strings.NewReader(in)); err == nil || err.Error() != c.table {
			t.Errorf("ReadResearchColumns(... %q ...) = %v, want %s", c.row, err, c.table)
		}
		s, err := NewCSVStream(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for ; err == nil; n++ {
			_, err = s.Next()
		}
		if want := c.stream; want == "" && err != io.EOF || want != "" && err.Error() != want {
			t.Errorf("CSVStream(... %q ...) = %v after %d records, want %q", c.row, err, n-1, want)
		}
	}
}

// TestReadBufferReused pins that a body decoded after another takes the
// read buffer the first one handed back, on the error paths too: each
// read allocates well under one buffer. (Under the race detector a pool
// drops a quarter of what it is handed, which this bound still allows.)
func TestReadBufferReused(t *testing.T) {
	good := []byte("s,u,x\n0,0,1\n1,1,2\n")
	bad := []byte("s,u,x\n0,0,1\n1,1,oops\n")
	reads := []func(){
		func() { _, _ = ReadCSV(bytes.NewReader(good)) },
		func() { _, _ = ReadCSV(bytes.NewReader(bad)) },
		func() { _, _ = ReadResearchColumns(bytes.NewReader(good)) },
		func() { _, _ = ReadResearchColumns(bytes.NewReader(bad)) },
		func() { _, _ = NewCSVStream(bytes.NewReader([]byte("nope\n"))) },
		func() {
			s, err := NewCSVStream(bytes.NewReader(good))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = s.Next()
			s.Close()
		},
	}
	for _, read := range reads {
		read()
	}
	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		for _, read := range reads {
			read()
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(reads)); perRead >= rowBufSize/2 {
		t.Errorf("%d bytes allocated per read, want < %d (a %d-byte read buffer each time?)", perRead, rowBufSize/2, rowBufSize)
	}
}
