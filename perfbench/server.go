package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"otfair/internal/obs"
	"otfair/internal/planstore"
	"otfair/internal/repairsvc"
)

// server is one in-process fairserved instance on a loopback listener.
type server struct {
	store *planstore.Store
	api   *repairsvc.Server
	hs    *http.Server
	url   string
	done  chan error
}

// startServer opens a plan store under dir and serves the repairsvc handler
// on 127.0.0.1. traced turns on per-record decode/encode span sampling for
// every repair request.
func startServer(dir string, traced bool) (*server, error) {
	store, err := planstore.Open(dir, planstore.Options{})
	if err != nil {
		return nil, err
	}
	opts := repairsvc.ServerOptions{}
	if traced {
		opts.TraceSample = 1
	}
	api, err := repairsvc.NewServer(store, opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Close()
		return nil, err
	}
	s := &server{
		store: store,
		api:   api,
		hs:    &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second},
		url:   "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for Serve to return and stops the
// server's background machinery.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	s.api.Close()
	return err
}

// client is the benchmark's single closed-loop HTTP client.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and returns the response body on 200. The returned slice
// aliases the client's buffer and is valid until the next call.
func (c *client) post(path, contentType string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("POST %s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(c.buf.String()))
	}
	return c.buf.Bytes(), nil
}

// postID posts and decodes the "id" field of a JSON response (plan design,
// calibration fit).
func (c *client) postID(path, contentType string, body []byte) (string, error) {
	raw, err := c.post(path, contentType, body)
	if err != nil {
		return "", err
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return "", fmt.Errorf("POST %s: %w", path, err)
	}
	if out.ID == "" {
		return "", fmt.Errorf("POST %s: response carries no id", path)
	}
	return out.ID, nil
}

// scrape reads the server's Prometheus exposition into a series map.
func (c *client) scrape() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Key()] = s.Value
	}
	return m, nil
}
