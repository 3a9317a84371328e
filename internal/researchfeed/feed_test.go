package researchfeed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"otfair/internal/dataset"
	"otfair/internal/faultinject"
	"otfair/internal/obs"
	"otfair/internal/planstore"
)

// fakeClock is a manually advanced Clock: Sleep records the requested
// duration and advances virtual time instantly, so retry-ladder tests
// assert the exact backoff schedule with zero real waiting.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.Now().Add(d)
	return ch
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
	c.mu.Unlock()
	return nil
}

func (c *fakeClock) Slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

// scriptSource plays back a fixed sequence of fetch results; the last
// entry repeats once the script is exhausted.
type scriptSource struct {
	mu     sync.Mutex
	script []func() ([]byte, error)
	calls  int
}

func (s *scriptSource) Kind() string { return "script" }

func (s *scriptSource) Fetch(ctx context.Context) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	i := s.calls
	s.calls++
	if i >= len(s.script) {
		i = len(s.script) - 1
	}
	fn := s.script[i]
	s.mu.Unlock()
	return fn()
}

func (s *scriptSource) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func ok(b []byte) func() ([]byte, error) { return func() ([]byte, error) { return b, nil } }
func fail(msg string) func() ([]byte, error) {
	return func() ([]byte, error) { return nil, errors.New(msg) }
}
func notModified() func() ([]byte, error) {
	return func() ([]byte, error) { return nil, ErrNotModified }
}

// testTable builds an n-record, dim-feature table with distinct values.
func testTable(t *testing.T, n, dim int) *dataset.Table {
	t.Helper()
	tbl := dataset.MustTable(dim, nil)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for k := range x {
			x[k] = float64(i)*1.5 + float64(k)*0.25
		}
		if err := tbl.Append(dataset.Record{U: i % 2, S: (i / 2) % 2, X: x}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	return tbl
}

func csvBytes(t *testing.T, tbl *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	return buf.Bytes()
}

// promText renders the registry for substring assertions.
func promText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return buf.String()
}

func TestRetryPolicyDeterministicSchedule(t *testing.T) {
	p := RetryPolicy{Attempts: 5, Base: 100 * time.Millisecond, Max: 400 * time.Millisecond, Seed: 7}
	a, b := p.Schedule(), p.Schedule()
	if len(a) != 4 {
		t.Fatalf("schedule length = %d, want Attempts-1 = 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		// Pre-jitter delay doubles from Base and caps at Max; jitter
		// scales it into [1/2, 1).
		d := min(p.Max, p.Base<<i)
		if a[i] < d/2 || a[i] >= d {
			t.Fatalf("delay %d = %v outside jitter window [%v, %v)", i, a[i], d/2, d)
		}
	}
	// A different seed must produce a different timeline (jitter draws
	// are keyed on the seed).
	q := p
	q.Seed = 8
	diff := false
	for i, d := range q.Schedule() {
		if d != a[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	var p RetryPolicy
	s := p.Schedule()
	if len(s) != 2 {
		t.Fatalf("default schedule length = %d, want 2", len(s))
	}
	for i, d := range s {
		if d <= 0 {
			t.Fatalf("default delay %d = %v, want positive", i, d)
		}
	}
	if p.Delay(-1) != p.Delay(0) {
		t.Fatal("negative retry index should clamp to 0")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := newFakeClock()
	br := NewBreaker(BreakerConfig{Threshold: 3, OpenFor: 10 * time.Second}, clock)
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("initial state = %d, want closed", got)
	}
	// Two failures stay closed; the third opens.
	for i := 0; i < 2; i++ {
		if !br.Allow() {
			t.Fatalf("closed breaker refused fetch %d", i)
		}
		br.Failure()
	}
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %d, want closed", got)
	}
	br.Failure()
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %d, want open", got)
	}
	if br.Allow() {
		t.Fatal("open breaker admitted a fetch before OpenFor elapsed")
	}
	// Past OpenFor: exactly one probe is admitted.
	clock.Advance(10 * time.Second)
	if !br.Allow() {
		t.Fatal("breaker refused the half-open probe after OpenFor")
	}
	if got := br.State(); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %d, want half-open", got)
	}
	if br.Allow() {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	// Probe failure re-opens with a fresh window.
	br.Failure()
	if got := br.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %d, want open", got)
	}
	if br.Allow() {
		t.Fatal("re-opened breaker admitted a fetch immediately")
	}
	clock.Advance(10 * time.Second)
	if !br.Allow() {
		t.Fatal("breaker refused the second probe")
	}
	br.Success()
	if got := br.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %d, want closed", got)
	}
	if !br.Allow() {
		t.Fatal("closed breaker refused a fetch after recovery")
	}
}

func TestFeedRetriesOnSeededSchedule(t *testing.T) {
	raw := csvBytes(t, testTable(t, 8, 2))
	src := &scriptSource{script: []func() ([]byte, error){
		fail("transient 1"), fail("transient 2"), ok(raw),
	}}
	clock := newFakeClock()
	retry := RetryPolicy{Attempts: 3, Base: 100 * time.Millisecond, Max: time.Second, Seed: 42}
	reg := obs.NewRegistry()
	f := New(src, Config{Retry: retry, Clock: clock, Registry: reg})

	snap, err := f.Fetch(context.Background())
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if snap.Table.Len() != 8 || snap.Table.Dim() != 2 {
		t.Fatalf("snapshot table %dx%d, want 8x2", snap.Table.Len(), snap.Table.Dim())
	}
	if len(snap.Fingerprint) != 32 {
		t.Fatalf("fingerprint %q, want 32 hex chars", snap.Fingerprint)
	}
	// The two recorded sleeps must be exactly the policy's schedule.
	want := retry.Schedule()
	got := clock.Slept()
	if len(got) != 2 {
		t.Fatalf("recorded %d sleeps, want 2", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want schedule's %v", i, got[i], want[i])
		}
	}
	if src.Calls() != 3 {
		t.Fatalf("source called %d times, want 3", src.Calls())
	}
	scrape := promText(t, reg)
	if !strings.Contains(scrape, `otfair_feed_fetches_total{outcome="ok"} 1`) {
		t.Fatalf("ok counter missing from scrape:\n%s", scrape)
	}
	if !strings.Contains(scrape, "otfair_feed_breaker_state 0") {
		t.Fatalf("breaker gauge not closed in scrape:\n%s", scrape)
	}
	if !strings.Contains(scrape, "otfair_feed_age_seconds 0") {
		t.Fatalf("age gauge not zero right after success:\n%s", scrape)
	}
}

func TestFeedBreakerOpensAndRecovers(t *testing.T) {
	raw := csvBytes(t, testTable(t, 8, 2))
	src := &scriptSource{script: []func() ([]byte, error){
		fail("down"), fail("down"), ok(raw),
	}}
	clock := newFakeClock()
	reg := obs.NewRegistry()
	f := New(src, Config{
		Retry:    RetryPolicy{Attempts: 1},
		Breaker:  BreakerConfig{Threshold: 2, OpenFor: 30 * time.Second},
		Clock:    clock,
		Registry: reg,
	})
	ctx := context.Background()

	// Two failed cycles trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := f.Fetch(ctx); err == nil {
			t.Fatalf("fetch %d: expected error from down source", i)
		}
	}
	if got := f.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker state = %d, want open", got)
	}
	// Open breaker fast-fails without touching the source.
	calls := src.Calls()
	if _, err := f.Fetch(ctx); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("fetch while open: err = %v, want ErrBreakerOpen", err)
	}
	if src.Calls() != calls {
		t.Fatal("open breaker still consulted the source")
	}
	// After OpenFor the half-open probe succeeds and closes the breaker.
	clock.Advance(30 * time.Second)
	snap, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("probe fetch: %v", err)
	}
	if snap == nil || f.BreakerState() != BreakerClosed {
		t.Fatalf("breaker state after successful probe = %d, want closed", f.BreakerState())
	}
	scrape := promText(t, reg)
	for _, want := range []string{
		`otfair_feed_fetches_total{outcome="error"} 2`,
		`otfair_feed_fetches_total{outcome="breaker_open"} 1`,
		`otfair_feed_fetches_total{outcome="ok"} 1`,
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape missing %q:\n%s", want, scrape)
		}
	}
}

func TestFeedNotModifiedReturnsCachedSnapshot(t *testing.T) {
	raw := csvBytes(t, testTable(t, 8, 2))
	src := &scriptSource{script: []func() ([]byte, error){ok(raw), notModified()}}
	f := New(src, Config{Retry: RetryPolicy{Attempts: 1}, Clock: newFakeClock()})
	ctx := context.Background()

	first, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("first fetch: %v", err)
	}
	second, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("not-modified fetch: %v", err)
	}
	if second != first {
		t.Fatal("not-modified fetch did not return the cached snapshot")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
}

func TestFeedNotModifiedWithoutCacheFails(t *testing.T) {
	src := &scriptSource{script: []func() ([]byte, error){notModified()}}
	f := New(src, Config{Retry: RetryPolicy{Attempts: 2}, Clock: newFakeClock()})
	_, err := f.Fetch(context.Background())
	if err == nil {
		t.Fatal("expected error: not-modified with nothing cached")
	}
	if !strings.Contains(err.Error(), "no cached snapshot") {
		t.Fatalf("err = %v, want a no-cached-snapshot explanation", err)
	}
	if src.Calls() != 2 {
		t.Fatalf("source called %d times, want 2 (retried as a failure)", src.Calls())
	}
}

func TestFeedCanonicalFingerprintDedupsFormatting(t *testing.T) {
	// The same records delivered with different float formatting and CRLF
	// line endings must fingerprint identically.
	canon := string(csvBytes(t, testTable(t, 4, 1)))
	messy := strings.ReplaceAll(canon, "\n", "\r\n")
	messy = strings.Replace(messy, "1.5", "1.50", 1)
	if messy == strings.ReplaceAll(canon, "\n", "\r\n") {
		t.Fatal("test table produced no 1.5 value to reformat")
	}
	src := &scriptSource{script: []func() ([]byte, error){ok([]byte(canon)), ok([]byte(messy))}}
	f := New(src, Config{Retry: RetryPolicy{Attempts: 1}, Clock: newFakeClock()})
	ctx := context.Background()
	a, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("fetch canonical: %v", err)
	}
	b, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("fetch messy: %v", err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("formatting changed the fingerprint: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
}

func TestFeedFaultPoints(t *testing.T) {
	raw := csvBytes(t, testTable(t, 8, 2))

	t.Run("fetch", func(t *testing.T) {
		inj := faultinject.New(1).Set(faultinject.FeedFetch, faultinject.Rule{Every: 1})
		src := &scriptSource{script: []func() ([]byte, error){ok(raw)}}
		f := New(src, Config{Retry: RetryPolicy{Attempts: 1}, Clock: newFakeClock(), Fault: inj})
		if _, err := f.Fetch(context.Background()); err == nil {
			t.Fatal("feed.fetch fault did not fail the fetch")
		}
		if src.Calls() != 0 {
			t.Fatal("feed.fetch fault fired after the source was consulted")
		}
		if inj.Fired(faultinject.FeedFetch) != 1 {
			t.Fatalf("feed.fetch fired %d times, want 1", inj.Fired(faultinject.FeedFetch))
		}
	})
	t.Run("timeout", func(t *testing.T) {
		inj := faultinject.New(1).Set(faultinject.FeedTimeout, faultinject.Rule{Every: 1})
		f := New(&scriptSource{script: []func() ([]byte, error){ok(raw)}},
			Config{Retry: RetryPolicy{Attempts: 1}, Clock: newFakeClock(), Fault: inj})
		_, err := f.Fetch(context.Background())
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("feed.timeout err = %v, want context.DeadlineExceeded", err)
		}
	})
	t.Run("torn-body", func(t *testing.T) {
		inj := faultinject.New(1).Set(faultinject.FeedTornBody, faultinject.Rule{Every: 1, Limit: 1})
		src := &scriptSource{script: []func() ([]byte, error){ok(raw)}}
		f := New(src, Config{Retry: RetryPolicy{Attempts: 1}, Clock: newFakeClock(), Fault: inj})
		ctx := context.Background()
		// A torn transfer either breaks the parse or still parses as a
		// truncated table — the min-records floor downstream exists for
		// exactly the latter. Either way the full set must not come back.
		snap, err := f.Fetch(ctx)
		if err == nil && snap.Table.Len() == 8 {
			t.Fatal("torn body still delivered the full table")
		}
		if err == nil {
			if verr := Validate(snap.Table, 8, 0); verr == nil {
				t.Fatalf("truncated %d-record table passed the 8-record floor", snap.Table.Len())
			}
		}
		if inj.Fired(faultinject.FeedTornBody) != 1 {
			t.Fatalf("feed.torn-body fired %d times, want 1", inj.Fired(faultinject.FeedTornBody))
		}
		// Past the Limit the next cycle delivers clean bytes.
		clean, err := f.Fetch(ctx)
		if err != nil {
			t.Fatalf("fetch after torn cycle: %v", err)
		}
		if clean.Table.Len() != 8 {
			t.Fatalf("clean table has %d records, want 8", clean.Table.Len())
		}
	})
	t.Run("stale", func(t *testing.T) {
		inj := faultinject.New(1).Set(faultinject.FeedStale, faultinject.Rule{Every: 2, Phase: 1})
		src := &scriptSource{script: []func() ([]byte, error){ok(raw)}}
		f := New(src, Config{Retry: RetryPolicy{Attempts: 1}, Clock: newFakeClock(), Fault: inj})
		ctx := context.Background()
		first, err := f.Fetch(ctx)
		if err != nil {
			t.Fatalf("first fetch: %v", err)
		}
		// Second cycle hits the stale fault: the cached snapshot comes
		// back without consulting the source.
		calls := src.Calls()
		second, err := f.Fetch(ctx)
		if err != nil {
			t.Fatalf("stale fetch: %v", err)
		}
		if second != first {
			t.Fatal("stale fault did not surface the cached snapshot")
		}
		if src.Calls() != calls {
			t.Fatal("stale fault still consulted the source")
		}
	})
}

func TestFileSource(t *testing.T) {
	raw := csvBytes(t, testTable(t, 4, 2))
	path := filepath.Join(t.TempDir(), "research.csv")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &FileSource{Path: path}
	if src.Kind() != "file" {
		t.Fatalf("kind = %q", src.Kind())
	}
	got, err := src.Fetch(context.Background())
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("file source returned different bytes")
	}
	if _, err := (&FileSource{Path: path + ".missing"}).Fetch(context.Background()); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestHTTPSourceETag(t *testing.T) {
	raw := csvBytes(t, testTable(t, 6, 2))
	var mu sync.Mutex
	var gets, conditional int
	etag := `"v1"`
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		gets++
		if r.Header.Get("If-None-Match") == etag {
			conditional++
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Etag", etag)
		w.Header().Set("Content-Type", "text/csv")
		w.Write(raw)
	}))
	defer upstream.Close()

	src := &HTTPSource{URL: upstream.URL}
	if src.Kind() != "http" {
		t.Fatalf("kind = %q", src.Kind())
	}
	ctx := context.Background()
	got, err := src.Fetch(ctx)
	if err != nil {
		t.Fatalf("first fetch: %v", err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("first fetch returned different bytes")
	}
	// Second fetch carries If-None-Match and maps 304 to ErrNotModified.
	if _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
		t.Fatalf("second fetch err = %v, want ErrNotModified", err)
	}
	mu.Lock()
	g, c := gets, conditional
	mu.Unlock()
	if g != 2 || c != 1 {
		t.Fatalf("gets=%d conditional=%d, want 2 and 1", g, c)
	}
	// Upstream content change: new ETag, fresh bytes flow again.
	mu.Lock()
	etag = `"v2"`
	mu.Unlock()
	if _, err := src.Fetch(ctx); err != nil {
		t.Fatalf("fetch after upstream change: %v", err)
	}
}

func TestHTTPSourceErrors(t *testing.T) {
	t.Run("non-200", func(t *testing.T) {
		upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		defer upstream.Close()
		_, err := (&HTTPSource{URL: upstream.URL}).Fetch(context.Background())
		if err == nil || !strings.Contains(err.Error(), "500") {
			t.Fatalf("err = %v, want a 500 mention", err)
		}
	})
	t.Run("oversized body", func(t *testing.T) {
		upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, strings.Repeat("x", 2048))
		}))
		defer upstream.Close()
		_, err := (&HTTPSource{URL: upstream.URL, MaxBytes: 1024}).Fetch(context.Background())
		if err == nil || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("err = %v, want the byte-cap refusal", err)
		}
	})
}

func TestStagedSourceServesNewestSet(t *testing.T) {
	store, err := planstore.OpenResearch(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatalf("open research store: %v", err)
	}
	src := &StagedSource{Store: store}
	if src.Kind() != "staged" {
		t.Fatalf("kind = %q", src.Kind())
	}
	ctx := context.Background()
	if _, err := src.Fetch(ctx); err == nil || !strings.Contains(err.Error(), "no research set staged") {
		t.Fatalf("empty store err = %v, want a no-set-staged explanation", err)
	}
	tbl := testTable(t, 8, 2)
	id, created, err := store.Put(tbl)
	if err != nil || !created {
		t.Fatalf("put: id=%s created=%v err=%v", id, created, err)
	}
	// The feed fingerprint over staged bytes must equal the staged
	// artefact id: both are core.FingerprintBytes over canonical CSV.
	f := New(src, Config{Retry: RetryPolicy{Attempts: 1}, Clock: newFakeClock()})
	snap, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if snap.Fingerprint != id {
		t.Fatalf("feed fingerprint %s != staged artefact id %s", snap.Fingerprint, id)
	}
	if snap.Table.Len() != 8 {
		t.Fatalf("staged table has %d records, want 8", snap.Table.Len())
	}
}

func TestValidate(t *testing.T) {
	reason := func(err error) string {
		t.Helper()
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("err = %v, want *ValidationError", err)
		}
		return verr.Reason
	}
	if got := reason(Validate(nil, 4, 0)); got != ReasonEmptyTable {
		t.Fatalf("nil table reason = %q", got)
	}
	if got := reason(Validate(dataset.MustTable(2, nil), 0, 0)); got != ReasonEmptyTable {
		t.Fatalf("empty table reason = %q", got)
	}
	if got := reason(Validate(testTable(t, 3, 2), 4, 0)); got != ReasonTooFewRecords {
		t.Fatalf("small table reason = %q", got)
	}
	if got := reason(Validate(testTable(t, 8, 3), 4, 2)); got != ReasonDimensionMismatch {
		t.Fatalf("dim mismatch reason = %q", got)
	}
	if err := Validate(testTable(t, 8, 2), 4, 2); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	// minRecords <= 0 disables the floor, wantDim 0 the dimension check.
	if err := Validate(testTable(t, 1, 5), 0, 0); err != nil {
		t.Fatalf("ungated table rejected: %v", err)
	}
}

// BreakerState exposes the breaker position.
func (f *Feed) BreakerState() int64 { return f.br.State() }

// Schedule materializes the full retry timeline (Attempts-1 waits), the
// form tests compare against recorded sleeps.
func (p RetryPolicy) Schedule() []time.Duration {
	p = p.withDefaults()
	out := make([]time.Duration, p.Attempts-1)
	for i := range out {
		out[i] = p.Delay(i)
	}
	return out
}
