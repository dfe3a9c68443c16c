package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// endpoint is an http.Handler served on a 127.0.0.1 listener.
type endpoint struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ep := &endpoint{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(ep.done)
		ep.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return ep, nil
}

// close stops the listener and every connection, and waits for Serve to
// return.
func (ep *endpoint) close() {
	ep.hs.Close()
	<-ep.done
}

// client is a loopback HTTP client holding at most conns connections.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// response is one completed exchange.
type response struct {
	status int
	body   []byte
	header http.Header
}

// do sends one request and reads the whole body.
func (c *client) do(method, url string, body []byte, header map[string]string) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return response{}, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("reading %s %s: %w", method, url, err)
	}
	return response{status: resp.StatusCode, body: b, header: resp.Header}, nil
}

// get sends a GET and fails on a transport error or a non-200 status.
func (c *client) get(url string, header map[string]string) (response, error) {
	r, err := c.do(http.MethodGet, url, nil, header)
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", url, r.status, bytes.TrimSpace(r.body))
	}
	return r, err
}
