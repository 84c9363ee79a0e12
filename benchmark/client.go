package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"gcore"
	"gcore/internal/server"
)

// service is the internal/server handler that cmd/gcored mounts,
// served in-process on a loopback port.
type service struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func startService(backend server.Backend) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{
		srv:  server.New(backend, server.Config{SessionIdle: -1}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for in-flight requests and the
// serve goroutine, then stops the server's session janitor.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout here still falls through to Close
	s.srv.Close()
	<-s.done
}

// client is one benchmark connection; its requests name the server
// session they run in.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		url: url,
	}
}

func (c *client) close() {
	if t, ok := c.hc.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// newSession opens a server session whose default graph is graph.
func (c *client) newSession(graph string) (string, error) {
	var resp struct {
		Session string `json:"session"`
	}
	err := c.call("/session", map[string]any{"graph": graph}, &resp)
	return resp.Session, err
}

// prepare registers a statement in a session and returns its handle.
func (c *client) prepare(session, text string) (string, error) {
	var resp struct {
		Handle string `json:"handle"`
	}
	err := c.call("/prepare", map[string]any{"session": session, "query": text}, &resp)
	return resp.Handle, err
}

// exec runs a prepared handle; the returned body is valid until the
// client's next request.
func (c *client) exec(session, handle string, params map[string]gcore.Value) ([]byte, error) {
	return c.post("/exec", map[string]any{"session": session, "handle": handle, "params": params})
}

// query runs ad hoc source text.
func (c *client) query(session, text string) ([]byte, error) {
	return c.post("/query", map[string]any{"session": session, "query": text})
}

func (c *client) call(path string, req, into any) error {
	body, err := c.post(path, req)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}

func (c *client) post(path string, req any) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}
