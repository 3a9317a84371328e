package obs

import (
	"math"
	"strings"
	"testing"
)

// TestPrometheusRoundTrip renders a registry with every instrument kind and
// parses it back with ParseText, asserting the parsed samples match the
// registered state — the exposition-format validation the ISSUE calls for.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("otfair_requests_total", "Total requests.")
	c.Add(41)
	c.Inc()
	rl := r.CounterL("otfair_http_requests_total", "Requests by route.", "route", "repair", "code", "200")
	rl.Add(7)
	r.CounterL("otfair_http_requests_total", "Requests by route.", "route", "blind", "code", "200").Add(3)
	g := r.GaugeL("otfair_inflight", "In-flight requests.")
	g.Set(5)
	r.GaugeFunc("otfair_store_mem_bytes", "Store bytes.", func() float64 { return 1024 })
	h := r.Histogram("otfair_request_seconds", "Request latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText failed on own output:\n%s\nerr: %v", text, err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Key()] = s.Value
	}
	want := map[string]float64{
		"otfair_requests_total":                                 42,
		`otfair_http_requests_total{route="repair",code="200"}`: 7,
		`otfair_http_requests_total{route="blind",code="200"}`:  3,
		"otfair_inflight":                                       5,
		"otfair_store_mem_bytes":                                1024,
		`otfair_request_seconds_bucket{le="0.001"}`:             1,
		`otfair_request_seconds_bucket{le="0.01"}`:              1,
		`otfair_request_seconds_bucket{le="0.1"}`:               2,
		`otfair_request_seconds_bucket{le="+Inf"}`:              3,
		"otfair_request_seconds_count":                          3,
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			t.Errorf("missing series %s in:\n%s", k, text)
			continue
		}
		if math.Abs(gv-v) > 1e-12 {
			t.Errorf("series %s = %v, want %v", k, gv, v)
		}
	}
	if sum := got["otfair_request_seconds_sum"]; math.Abs(sum-3.0505) > 1e-9 {
		t.Errorf("histogram sum = %v, want 3.0505", sum)
	}
	// TYPE lines must precede samples and appear once per family.
	if n := strings.Count(text, "# TYPE otfair_http_requests_total counter"); n != 1 {
		t.Errorf("TYPE line count = %d, want 1", n)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":  "foo 1\n",
		"unknown TYPE":        "# TYPE foo banana\nfoo 1\n",
		"bad value":           "# TYPE foo counter\nfoo abc\n",
		"unterminated labels": "# TYPE foo counter\nfoo{a=\"b\" 1\n",
		"malformed label":     "# TYPE foo counter\nfoo{ab} 1\n",
		"non-cumulative buckets": "# TYPE foo histogram\n" +
			"foo_bucket{le=\"1\"} 5\nfoo_bucket{le=\"+Inf\"} 3\n",
	}
	for name, text := range cases {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("%s: ParseText accepted %q", name, text)
		}
	}
}

func TestParseTextAcceptsSpecials(t *testing.T) {
	text := "# TYPE foo gauge\nfoo +Inf\n# TYPE bar gauge\nbar{x=\"a,b\"} -Inf\n# TYPE baz gauge\nbaz NaN\n"
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3", len(samples))
	}
	if !math.IsInf(samples[0].Value, 1) || !math.IsInf(samples[1].Value, -1) || !math.IsNaN(samples[2].Value) {
		t.Fatalf("special values parsed wrong: %+v", samples)
	}
	if samples[1].Labels != `x="a,b"` {
		t.Fatalf("quoted comma label parsed wrong: %q", samples[1].Labels)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	h1 := r.Histogram("h_seconds", "help", []float64{1, 2})
	h2 := r.Histogram("h_seconds", "help", []float64{5, 6})
	if h1 != h2 {
		t.Fatal("re-registration returned a different histogram")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind conflict did not panic")
			}
		}()
		r.GaugeL("x_total", "help")
	}()
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterL("esc_total", "h", "path", `a"b\c`+"\n").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("escaped output did not parse: %v\n%s", err, b.String())
	}
	if len(samples) != 1 || samples[0].Value != 1 {
		t.Fatalf("unexpected samples %+v", samples)
	}
}
