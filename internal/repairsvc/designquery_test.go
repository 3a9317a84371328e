package repairsvc

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"otfair/internal/planstore"
)

// emptyServer boots a server over an empty store and returns the store so
// tests can check what a request left in it.
func emptyServer(t *testing.T) (*httptest.Server, *planstore.Store) {
	t.Helper()
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := NewServer(store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv, store
}

func assertStoreEmpty(t *testing.T, store *planstore.Store) {
	t.Helper()
	ids, err := store.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("store holds %v, want nothing", ids)
	}
}

// TestDesignQueryCapsNQ: a design request's nq sizes the nq×nq cost
// matrix of the simplex and Sinkhorn solvers, so it is capped at
// maxQueryNQ. The cap itself is accepted; one above it is a 400 before any
// design work, and nothing is stored.
func TestDesignQueryCapsNQ(t *testing.T) {
	parse := func(query string) error {
		_, err := designOptionsFromQuery(&http.Request{URL: &url.URL{RawQuery: query}})
		return err
	}
	if err := parse("nq=" + strconv.Itoa(maxQueryNQ) + "&solver=sinkhorn"); err != nil {
		t.Fatalf("nq at the cap rejected: %v", err)
	}
	for _, query := range []string{"nq=4097&solver=sinkhorn", "nq=200000", "nq=9223372036854775807"} {
		if err := parse(query); err == nil {
			t.Errorf("%s accepted", query)
		}
	}

	_, research, _ := testData(t, 1, 300, 0, 10)
	srv, store := emptyServer(t)
	resp := postCSV(t, srv.URL+"/v1/plans?nq=4097", research)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nq above the cap: %s, want 400", resp.Status)
	}
	assertStoreEmpty(t, store)
}

// TestPlansPostRejectsNonConvergedSinkhorn: a Sinkhorn design whose
// iteration runs out before meeting its tolerance is a 422 and is not
// stored. ε = 1e-3 on these 100-state cells is the non-converging case of
// core's TestDesignRejectsNonConvergedSinkhorn.
func TestPlansPostRejectsNonConvergedSinkhorn(t *testing.T) {
	_, research, _ := testData(t, 1, 500, 0, 10)
	srv, store := emptyServer(t)
	resp := postCSV(t, srv.URL+"/v1/plans?nq=100&solver=sinkhorn&epsilon=0.001", research)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("non-converged design: %s %s, want 422", resp.Status, body)
	}
	assertStoreEmpty(t, store)
}

// unreadBody is a request body that records whether anything read it.
type unreadBody struct{ read bool }

func (b *unreadBody) Read([]byte) (int, error) {
	b.read = true
	return 0, io.EOF
}

// TestPlansPostRefusesQueryBeforeBody: a design request with a bad query
// is a 400 before the research body is read, so a client that got a
// parameter wrong is not made to upload (and the server to parse) the
// whole set first. Nothing is stored.
func TestPlansPostRefusesQueryBeforeBody(t *testing.T) {
	store, err := planstore.Open(t.TempDir(), planstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"nq=abc", "nq=4097&solver=sinkhorn", "solver=bogus", "t=x", "kernel=nope"} {
		body := &unreadBody{}
		req := httptest.NewRequest(http.MethodPost, "/v1/plans?"+query, body)
		req.Header.Set("Content-Type", "text/csv")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d %s, want 400", query, rec.Code, rec.Body.Bytes())
		}
		if body.read {
			t.Errorf("%s: the body was read before the query was refused", query)
		}
	}
	assertStoreEmpty(t, store)
}

// FuzzDesignOptionsFromQuery drives the design-query parser with arbitrary
// query strings: it must never panic, and no query it accepts may carry
// an nq above maxQueryNQ.
func FuzzDesignOptionsFromQuery(f *testing.F) {
	for _, seed := range []string{
		"nq=50&t=0.5&amount=1&solver=sinkhorn&epsilon=0.01",
		"nq=100&solver=simplex&kernel=epanechnikov&bandwidth=scott",
		"target=gaussian&barycenter=bregman",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		opts, err := designOptionsFromQuery(&http.Request{URL: &url.URL{RawQuery: query}})
		if err == nil && opts.NQ > maxQueryNQ {
			t.Fatalf("query %q accepted with nq %d above the cap %d", query, opts.NQ, maxQueryNQ)
		}
	})
}
