package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// loopback is one handler served over HTTP on 127.0.0.1.
type loopback struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return lb, nil
}

// close stops the listener and connections and waits for Serve to end.
func (lb *loopback) close() {
	_ = lb.hs.Close()
	<-lb.done
}

// newClient returns a client holding at most conns connections per
// host: the load generator's connection budget.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// dropIdle closes the client's idle connections.
func dropIdle(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// errStatus is a non-2xx answer.
type errStatus struct {
	status int
	body   string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// post sends body to url and returns the full response body, when the
// request went on the wire and when the response was complete; any
// non-200 status is an error. While tr records, the request carries req
// and a fresh "http" span id in its headers, the http span is recorded,
// and the id of its parent "client" span is returned for the caller to
// close with closeClient once it knows the due time (0 otherwise).
func post(ctx context.Context, c *http.Client, tr *tracer, url string, body []byte, req int64) (resp []byte, sent, done time.Time, client int64, err error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		now := time.Now()
		return nil, now, now, 0, err
	}
	r.Header.Set("Content-Type", "application/json")
	var hop int64
	if tr.recording() {
		client, hop = tr.newID(), tr.newID()
		r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
		r.Header.Set(parentHeader, strconv.FormatInt(hop, 10))
	}
	sent = time.Now()
	resp, err = roundTrip(c, r)
	done = time.Now()
	if hop != 0 {
		tr.put(span{ID: hop, Parent: client, Req: req, Name: "http", Start: tr.ns(sent), End: tr.ns(done)})
	}
	return resp, sent, done, client, err
}

func roundTrip(c *http.Client, r *http.Request) ([]byte, error) {
	resp, err := c.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &errStatus{status: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	return b, nil
}

// closeClient records the root "client" span of a traced request: from
// when it was due to when its response was complete.
func closeClient(tr *tracer, id, req int64, s sample) {
	if id != 0 {
		tr.put(span{ID: id, Req: req, Name: "client", Start: tr.ns(s.due), End: tr.ns(s.done)})
	}
}

// scrape reads a Prometheus text exposition and returns its unlabelled
// series by name.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &errStatus{status: resp.StatusCode}
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// counterDelta returns after[name] - before[name] for each name.
func counterDelta(before, after map[string]float64, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = after[n] - before[n]
	}
	return out
}

// digest is a fixed-size fingerprint of an output: checks keep these,
// never whole bodies, so checking does not inflate peak memory.
type digest [sha256.Size]byte

func digestOf(b []byte) digest { return sha256.Sum256(b) }

func (d digest) String() string { return hex.EncodeToString(d[:]) }

func parseDigest(s string) (digest, error) {
	var d digest
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(d) {
		return d, fmt.Errorf("digest %q: want %d hex digits", s, 2*len(d))
	}
	copy(d[:], b)
	return d, nil
}

// quietLogger formats every request log line as pixeld does but drops
// it, so logging costs what it costs in service without flooding the
// benchmark's output.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }
