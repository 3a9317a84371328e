package repairsvc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"otfair/internal/core"
	"otfair/internal/dataset"
	"otfair/internal/planstore"
	"otfair/internal/rng"
)

// countSpools counts request-body spool files in the temp directory.
func countSpools(t *testing.T) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "fairserved-repair-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// failingReader delivers some bytes, then fails mid-copy — a client that
// died halfway through uploading its archive.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestRepairSpoolNeverLeaks audits the repair-spool lifecycle: after forced
// mid-copy failures, early handler returns past the spool point, mid-stream
// repair aborts and plain successes, no spooled body file may remain on
// disk. The spool is unlinked the moment it is created, so the invariant
// holds at every instant, not just after handler exit.
func TestRepairSpoolNeverLeaks(t *testing.T) {
	// Isolate the temp dir so concurrent tests (or leftovers from other
	// processes) cannot interfere with the count.
	t.Setenv("TMPDIR", t.TempDir())

	plan, _, archive := testData(t, 31, 250, 600, 30)
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	// A small body cap lets one request force the mid-copy MaxBytesError
	// path too.
	srv, err := NewServer(store, ServerOptions{MaxBodyBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	var archiveCSV bytes.Buffer
	if err := archive.WriteCSV(&archiveCSV); err != nil {
		t.Fatal(err)
	}
	csvBody := archiveCSV.Bytes()

	cases := []struct {
		name   string
		target string
		body   io.Reader
		status int // 0 = panic (aborted connection) is acceptable
	}{
		{
			name:   "mid-copy read failure",
			target: "/v1/repair?plan=" + id + "&seed=1&workers=1",
			body:   &failingReader{data: csvBody[:len(csvBody)/2], err: errors.New("client died")},
			status: http.StatusBadRequest,
		},
		{
			name:   "mid-copy body-cap overrun",
			target: "/v1/repair?plan=" + id + "&seed=1",
			body:   io.MultiReader(bytes.NewReader(csvBody), bytes.NewReader(make([]byte, 2<<20))),
			status: http.StatusRequestEntityTooLarge,
		},
		{
			name:   "early return after spool (unknown format)",
			target: "/v1/repair?plan=" + id + "&seed=1&format=parquet",
			body:   bytes.NewReader(csvBody),
			status: http.StatusBadRequest,
		},
		{
			name:   "mid-stream repair abort (malformed record)",
			target: "/v1/repair?plan=" + id + "&seed=1&workers=1",
			body:   strings.NewReader("s,u,x0,x1\n0,1,0.5,0.5\n0,9,0.5,0.5\n"),
			status: 0,
		},
		{
			name:   "success",
			target: "/v1/repair?plan=" + id + "&seed=1&workers=1",
			body:   bytes.NewReader(csvBody),
			status: http.StatusOK,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, tc.target, tc.body)
			req.Header.Set("Content-Type", "text/csv")
			rec := httptest.NewRecorder()
			func() {
				defer func() {
					if p := recover(); p != nil {
						if p != http.ErrAbortHandler {
							panic(p)
						}
						if tc.status != 0 {
							t.Errorf("unexpected handler abort")
						}
					}
				}()
				srv.ServeHTTP(rec, req)
				if tc.status != 0 && rec.Code != tc.status {
					t.Errorf("status = %d, want %d (body %q)", rec.Code, tc.status, rec.Body.String())
				}
			}()
			if n := countSpools(t); n != 0 {
				t.Errorf("%d spool file(s) left on disk", n)
			}
		})
	}
}

// TestBodySpoolUnlinkedImmediately pins the mechanism itself: the spool has
// no directory entry from the moment it exists (so even a killed process
// cannot leak it), while its contents stay readable through the open
// descriptor.
func TestBodySpoolUnlinkedImmediately(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	sp, err := newBodySpool()
	if err != nil {
		t.Fatal(err)
	}
	if n := countSpools(t); n != 0 {
		t.Fatalf("%d spool file(s) visible while the spool is open", n)
	}
	if _, err := sp.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(sp)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSpools(t); n != 0 {
		t.Fatalf("%d spool file(s) left after close", n)
	}
}

// sizedBody encodes the longest prefix of archive whose encoding fits in
// size bytes, padded to exactly size with blank lines (which both
// decoders skip), and returns it with that prefix.
func sizedBody(t *testing.T, format string, archive *dataset.Table, size int) ([]byte, *dataset.Table) {
	t.Helper()
	full, records := tableCSV(t, archive), -1 // the header is no record
	if format == "ndjson" {
		full, records = tableNDJSON(t, archive), 0
	}
	if len(full) <= size {
		t.Fatalf("archive of %d records encodes to %d bytes, not over %d", archive.Len(), len(full), size)
	}
	end := 0
	for {
		n := bytes.IndexByte(full[end:], '\n') + 1
		if end+n > size {
			break
		}
		end += n
		records++
	}
	prefix := dataset.MustTable(archive.Dim(), archive.Names())
	if err := prefix.AppendAll(archive.Records()[:records]); err != nil {
		t.Fatal(err)
	}
	body := append(full[:end:end], bytes.Repeat([]byte{'\n'}, size-end)...)
	return body, prefix
}

// libraryRepair is what /v1/repair must answer for records at seed with
// one worker: the in-process Repairer's output in the wire format.
func libraryRepair(t *testing.T, plan *core.Plan, format string, records *dataset.Table, seed uint64) []byte {
	t.Helper()
	rp, err := core.NewRepairer(plan, rng.New(seed), core.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := rp.RepairTable(records)
	if err != nil {
		t.Fatal(err)
	}
	if format == "ndjson" {
		return tableNDJSON(t, repaired)
	}
	return tableCSV(t, repaired)
}

// TestRepairSpoolChunkBoundary holds the memory-first spool at its edge:
// bodies of spoolChunk−1, spoolChunk and spoolChunk+1 bytes, CSV and
// NDJSON, each repaired byte-identically to the library path, with every
// reserved byte returned to the budget afterwards.
func TestRepairSpoolChunkBoundary(t *testing.T) {
	spoolDirCheck(t)
	plan, _, archive := testData(t, 41, 250, 7000, 30)
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := store.Put(plan)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"csv", "ndjson"} {
		for _, size := range []int{spoolChunk - 1, spoolChunk, spoolChunk + 1} {
			body, records := sizedBody(t, format, archive, size)
			req := httptest.NewRequest(http.MethodPost, "/v1/repair?plan="+id+"&seed=3&workers=1&format="+format, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s, %d bytes: status %d %s", format, size, rec.Code, rec.Body.Bytes())
			}
			if want := libraryRepair(t, plan, format, records, 3); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s, %d bytes (%d records): served bytes differ from the library path", format, size, records.Len())
			}
			if inflight, queued := srv.gate.snapshot(); inflight != 0 || queued != 0 {
				t.Errorf("%s, %d bytes: gate holds %d requests and %d bytes after the request", format, size, inflight, queued)
			}
		}
	}
}

// truncatedReader delivers its bytes, then fails the way net/http's body
// does on an upload cut short: with io.ErrUnexpectedEOF.
type truncatedReader struct{ data []byte }

func (r *truncatedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestSpoolBodyMemoryFirst pins where spoolBody puts a body: one that
// ends within the first chunk stays in the pooled buffer and opens no
// spool file, one past it is spooled to disk, and either reads back
// exactly, with its size reserved. A body cut short is an error, never a
// body that ended.
func TestSpoolBodyMemoryFirst(t *testing.T) {
	spoolDirCheck(t)
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, spoolChunk - 1, spoolChunk, spoolChunk + 1, 3*spoolChunk + 5} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		b := newRequestBody()
		reserved, err := srv.spoolBody(b, bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%d bytes: %v", size, err)
		}
		if reserved != int64(size) {
			t.Errorf("%d bytes: reserved %d", size, reserved)
		}
		if inMemory := b.file == nil; size < spoolChunk && !inMemory || size > spoolChunk && inMemory {
			t.Errorf("%d bytes: held in memory = %v", size, inMemory)
		}
		got, err := io.ReadAll(b)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("%d bytes: read back %d bytes, %v", size, len(got), err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		srv.gate.free(reserved)
	}
	for _, size := range []int{10, spoolChunk + 10} {
		b := newRequestBody()
		reserved, err := srv.spoolBody(b, &truncatedReader{data: make([]byte, size)})
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d bytes cut short: %v, want io.ErrUnexpectedEOF", size, err)
		}
		b.Close()
		srv.gate.free(reserved)
	}
	if _, queued := srv.gate.snapshot(); queued != 0 {
		t.Errorf("gate holds %d bytes", queued)
	}
}

// TestRepairSpoolBuffersNotShared runs concurrent repairs whose bodies are
// held in pooled buffers, each body different: a buffer handed to a second
// request while the first still reads it would mix their records (and
// make a data race, which `make race` reports), so every response must
// equal its own library repair.
func TestRepairSpoolBuffersNotShared(t *testing.T) {
	// 4 000 records make bodies of about 150–230 KB: held in memory, and
	// longer than one read of either decoder, so a request reads its
	// buffer throughout its repair.
	const clients, rounds, records = 4, 6, 4000
	plan, _, archive := testData(t, 43, 250, clients*records, 30)
	srv, id := newTestServer(t, plan)
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		part := dataset.MustTable(archive.Dim(), archive.Names())
		if err := part.AppendAll(archive.Records()[c*records : (c+1)*records]); err != nil {
			t.Fatal(err)
		}
		format := []string{"csv", "ndjson"}[c%2]
		body := tableCSV(t, part)
		if format == "ndjson" {
			body = tableNDJSON(t, part)
		}
		if len(body) >= spoolChunk {
			t.Fatalf("client %d body of %d bytes is not held in memory", c, len(body))
		}
		seed := uint64(c + 1)
		want := libraryRepair(t, plan, format, part, seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(fmt.Sprintf("%s/v1/repair?plan=%s&seed=%d&workers=1&format=%s", srv.URL, id, seed, format), "text/csv", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("client %d round %d: %s, %v, bytes equal %v", c, r, resp.Status, err, bytes.Equal(got, want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
