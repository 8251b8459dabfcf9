package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/flexoffer"
)

// conn is one keep-alive connection of the load driver. Every response
// body is read to EOF before the next request, so the connection is
// always reused; dials counts how often the transport had to open one.
type conn struct {
	base  string
	http  *http.Client
	dials *atomic.Int64
	buf   bytes.Buffer
	body  bytes.Buffer
}

// newConn builds a client pinned to at most one connection.
func newConn(base string, dials *atomic.Int64) *conn {
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		MaxIdleConns:        1,
		IdleConnTimeout:     5 * time.Minute,
		DisableCompression:  true,
	}
	return &conn{base: base, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, dials: dials}
}

// close releases the idle connection.
func (c *conn) close() { c.http.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// shed reports whether the daemon's admission control refused the request.
func (e *statusError) shed() bool {
	return e.code == http.StatusTooManyRequests || e.code == http.StatusServiceUnavailable
}

// do sends one request and reads the whole response into c.buf.
func (c *conn) do(method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return &statusError{code: resp.StatusCode, body: c.buf.String()}
	}
	return nil
}

// decode unmarshals the last response body into out.
func (c *conn) decode(out any) error { return json.Unmarshal(c.buf.Bytes(), out) }

func (c *conn) submit(f *flexoffer.FlexOffer) error {
	c.body.Reset()
	if err := json.NewEncoder(&c.body).Encode(f); err != nil {
		return err
	}
	return c.do(http.MethodPost, "/offers", c.body.Bytes())
}

func (c *conn) accept(id string) error {
	return c.do(http.MethodPost, "/offers/"+url.PathEscape(id)+"/accept", nil)
}

func (c *conn) assign(id string, start time.Time, energies []float64) error {
	c.body.Reset()
	if err := json.NewEncoder(&c.body).Encode(struct {
		Start    time.Time `json:"start"`
		Energies []float64 `json:"energies"`
	}{start, energies}); err != nil {
		return err
	}
	return c.do(http.MethodPost, "/offers/"+url.PathEscape(id)+"/assign", c.body.Bytes())
}

// page fetches one page of the paginated listing and returns its cursor.
func (c *conn) page(state, owner, cursor string, limit int) (string, error) {
	q := url.Values{}
	if state != "" {
		q.Set("state", state)
	}
	if owner != "" {
		q.Set("owner", owner)
	}
	q.Set("limit", strconv.Itoa(limit))
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if err := c.do(http.MethodGet, "/offers?"+q.Encode(), nil); err != nil {
		return "", err
	}
	return nextCursor(c.buf.Bytes()), nil
}

func (c *conn) get(path string) error { return c.do(http.MethodGet, path, nil) }

func (c *conn) post(path string) error { return c.do(http.MethodPost, path, nil) }
