package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The nobld wire format, restated in the minimal structs the benchmark
// needs.  nobbench imports no package of the module under test, so a
// refactor of the daemon's internals cannot change what is measured.

type machine struct {
	P     int     `json:"p"`
	Sigma float64 `json:"sigma"`
}

// request is POST /v1/analyze.
type request struct {
	Algorithm string    `json:"algorithm,omitempty"`
	N         int       `json:"n,omitempty"`
	Kind      string    `json:"kind"`
	Engine    string    `json:"engine,omitempty"`
	Machines  []machine `json:"machines,omitempty"`
	Topology  string    `json:"topology,omitempty"`
	Strategy  string    `json:"strategy,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Wait      bool      `json:"wait,omitempty"`
}

// key is the request's identity for golden lookup: every field that
// changes the answer, without the engine (the deterministic kinds agree
// across engines byte-for-byte) and without delivery fields.
func (r request) key() string {
	r.Engine, r.Wait = "", false
	b, _ := json.Marshal(r) // a struct of plain fields cannot fail to marshal
	return string(b)
}

// response is the analyze reply; only the fields the checks read.
type response struct {
	Status   string `json:"status"`
	Cached   bool   `json:"cached"`
	Error    string `json:"error"`
	Document *struct {
		Experiments json.RawMessage `json:"experiments"`
	} `json:"document"`
}

// client posts analyze requests over at most maxConns connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, maxConns int) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 150 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// analyze posts req with wait set and returns the raw body of a 2xx
// reply; any other outcome is an error.
func (c *client) analyze(req request) ([]byte, error) {
	req.Wait = true
	body, _ := json.Marshal(req) // plain struct
	resp, err := c.http.Post(c.base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// getJSON fetches path and decodes the reply into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
