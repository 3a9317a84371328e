package repairsvc

// The resilience layer of the HTTP front end: a bounded admission gate in
// front of the repair engines (load is shed with 429 + Retry-After
// instead of being queued without limit), a drain state for graceful
// shutdown (new work is refused with 503 while in-flight requests
// finish), and the server-wide counters that make degradation observable
// in /v1/metrics. The design principle throughout is degrade, don't
// collapse: every refusal is cheap, typed and counted, and no overload
// path ever touches an engine or the store.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"

	"otfair/internal/planstore"
	"otfair/internal/shardrun"
)

// errShed marks a request refused by the admission gate; handlers map it
// to 429 with a Retry-After hint.
var errShed = errors.New("repairsvc: admission budget exhausted")

// admission is the two-budget gate: a concurrent-request slot count and
// a total spooled-bytes budget across all admitted requests. Both are
// plain counters under one mutex — admission decisions must be cheap
// precisely when the server is busiest.
type admission struct {
	mu          sync.Mutex
	inflight    int
	queuedBytes int64
	maxInflight int   // <= 0 = unlimited
	maxBytes    int64 // <= 0 = unlimited
}

// tryAcquire claims one request slot, reporting false when the
// concurrency budget is spent.
func (g *admission) tryAcquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.maxInflight > 0 && g.inflight >= g.maxInflight {
		return false
	}
	g.inflight++
	return true
}

// release returns a request slot.
func (g *admission) release() {
	g.mu.Lock()
	g.inflight--
	g.mu.Unlock()
}

// reserve claims n bytes of the spool budget, reporting false when the
// budget would be exceeded.
func (g *admission) reserve(n int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.maxBytes > 0 && g.queuedBytes+n > g.maxBytes {
		return false
	}
	g.queuedBytes += n
	return true
}

// free returns n bytes of the spool budget.
func (g *admission) free(n int64) {
	if n == 0 {
		return
	}
	g.mu.Lock()
	g.queuedBytes -= n
	g.mu.Unlock()
}

// snapshot reports the gate's current occupancy.
func (g *admission) snapshot() (inflight int, queuedBytes int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight, g.queuedBytes
}

// resilienceCounters are the server-wide degradation counters surfaced
// in /v1/metrics. Cumulative and monotone, like every counter in this
// repository.
type resilienceCounters struct {
	// Shed counts requests refused by the admission gate (429).
	Shed atomic.Uint64
	// DeadlineExceeded counts repairs aborted by the per-request budget.
	DeadlineExceeded atomic.Uint64
	// Disconnects counts repairs aborted because the client went away.
	Disconnects atomic.Uint64
	// Panics counts worker panics converted to *ShardPanicError — each
	// one failed a single request, not the process.
	Panics atomic.Uint64
}

// spoolChunk is the reservation granularity of the byte-budget spool
// copy: small enough that concurrent spools interleave fairly, large
// enough that the gate mutex is not contended per read. It is also the
// most of a body held in memory: a request's pooled buffer is one chunk.
const spoolChunk = 256 << 10

// errSpoolFile marks a failure of the spool file itself — creating,
// writing or rewinding it — a server fault, not a bad request.
var errSpoolFile = errors.New("repairsvc: spool file")

// spoolBody reads the request body into b, reserving the byte budget
// chunk by chunk as the copy progresses (Content-Length is
// client-supplied and absent on chunked uploads, so the only honest
// accounting is of bytes actually landed). Each chunk is read into b's
// pooled buffer: a body that ends within the first chunk stays there, and
// a longer one is written out chunk by chunk to an unlinked spool file,
// rewound for reading. It returns the bytes reserved — the caller must
// free them when the request completes — and errShed when the budget runs
// out mid-copy.
func (s *Server) spoolBody(b *requestBody, body io.Reader) (reserved int64, err error) {
	buf := *b.buf
	for {
		if !s.gate.reserve(spoolChunk) {
			return reserved, errShed
		}
		reserved += spoolChunk
		n, rerr := fill(body, buf)
		if n < spoolChunk {
			// Short chunk (EOF or error): return the unused reservation.
			s.gate.free(spoolChunk - int64(n))
			reserved -= spoolChunk - int64(n)
		}
		ended := rerr == io.EOF
		if rerr != nil && !ended {
			return reserved, rerr
		}
		if ended && b.file == nil {
			b.mem.Reset(buf[:n])
			return reserved, nil
		}
		if b.file == nil {
			if b.file, err = newBodySpool(); err != nil {
				return reserved, fmt.Errorf("%w: %w", errSpoolFile, err)
			}
		}
		if _, err := b.file.Write(buf[:n]); err != nil {
			return reserved, fmt.Errorf("%w: %w", errSpoolFile, err)
		}
		if ended {
			if _, err := b.file.Seek(0, io.SeekStart); err != nil {
				return reserved, fmt.Errorf("%w: %w", errSpoolFile, err)
			}
			return reserved, nil
		}
	}
}

// fill reads body into buf until buf is full or the read fails; err is
// io.EOF when the body ended. Unlike io.ReadFull it keeps a body's own
// io.ErrUnexpectedEOF (a truncated upload) apart from a clean end.
func fill(body io.Reader, buf []byte) (n int, err error) {
	for n < len(buf) && err == nil {
		var m int
		m, err = body.Read(buf[n:])
		n += m
	}
	return n, err
}

// shed writes the 429 every gate refusal maps to, with the Retry-After
// hint load balancers and well-behaved clients back off on.
func (s *Server) shed(w http.ResponseWriter, format string, args ...any) {
	s.res.Shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfterSeconds))
	httpError(w, http.StatusTooManyRequests, format, args...)
}

// BeginDrain puts the server into drain mode: /readyz starts failing (so
// orchestrators stop routing here), new repair requests are refused with
// 503, and in-flight requests run to completion. cmd/fairserved calls it
// on SIGTERM before http.Server.Shutdown. Draining is one-way — a
// draining server is on its way out.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// refuseDraining writes the 503 a draining server answers new repair
// work with. Retry-After carries the same hint as shedding: the client
// should go elsewhere, and soon.
func (s *Server) refuseDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfterSeconds))
	httpError(w, http.StatusServiceUnavailable, "server is draining")
}

// handleReady is the readiness probe, split from /healthz liveness: a
// process can be alive (do not restart it) yet unready (do not route to
// it). Unready when draining, and when the artefact store fails a
// writability round-trip — a server that cannot persist plans will fail
// most useful work, so it should stop receiving traffic before it fails
// requests.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	if err := checkWritable(s.store.Dir()); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": fmt.Sprintf("store not writable: %v", err)})
		return
	}
	s.mu.Lock()
	bound := len(s.states)
	s.mu.Unlock()
	inflight, queued := s.gate.snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":        true,
		"bound_plans":  bound,
		"inflight":     inflight,
		"queued_bytes": queued,
	})
}

// checkWritable round-trips a temp file through dir: create, write,
// read back, remove. A full or read-only disk fails here, in the probe,
// instead of in a client's request.
func checkWritable(dir string) error {
	f, err := os.CreateTemp(dir, ".readyz-*")
	if err != nil {
		return err
	}
	name := f.Name()
	defer os.Remove(name)
	if _, err := f.Write([]byte("ok")); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	got, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	if string(got) != "ok" {
		return fmt.Errorf("read back %q, want %q", got, "ok")
	}
	return nil
}

// noteFailure buckets a failed repair into the resilience counters. ctx
// is the request's (possibly deadline-wrapped) context: when the client
// disconnects, the engine's cancellation and the sink's write-to-dead-
// connection error race, so the classification consults both the error
// and the context state rather than trusting whichever surfaced first.
func (s *Server) noteFailure(ctx context.Context, err error) {
	var sp *shardrun.ShardPanicError
	switch {
	case errors.As(err, &sp):
		s.res.Panics.Add(1)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.res.DeadlineExceeded.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled) || clientGone(err):
		s.res.Disconnects.Add(1)
	}
}

// clientGone reports whether err is a write failure to a connection the
// peer already closed — the disconnect's other face.
func clientGone(err error) bool {
	return errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, net.ErrClosed)
}

// resilienceSnapshot assembles the /v1/metrics resilience section. The
// quarantine count is the stores' (both namespaces), so a corrupt
// artefact shows up here whichever tier it was read through.
func (s *Server) resilienceSnapshot() map[string]any {
	inflight, queued := s.gate.snapshot()
	return map[string]any{
		"shed":              s.res.Shed.Load(),
		"deadline_exceeded": s.res.DeadlineExceeded.Load(),
		"disconnects":       s.res.Disconnects.Load(),
		"panics":            s.res.Panics.Load(),
		"quarantined":       s.store.Stats().Quarantined + s.cals.Stats().Quarantined,
		"draining":          s.draining.Load(),
		"inflight":          inflight,
		"queued_bytes":      queued,
		"max_inflight":      s.gate.maxInflight,
		"max_queued_bytes":  s.gate.maxBytes,
	}
}

// resilienceStatus maps the resilience-layer error classes to their
// statuses: store corruption and worker panics are server faults (500,
// distinguishable by their typed error strings), a shed spool is 429,
// and a blown deadline is 503 — the client's budget, not its request,
// was the problem. Errors outside these classes report ok == false and
// fall through to the ordinary mapping.
func resilienceStatus(err error) (status int, ok bool) {
	var corrupt *planstore.CorruptArtefactError
	var panicked *shardrun.ShardPanicError
	switch {
	case errors.As(err, &corrupt), errors.As(err, &panicked):
		return http.StatusInternalServerError, true
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests, true
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, true
	}
	return 0, false
}
