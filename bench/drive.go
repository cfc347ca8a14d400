package main

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the connection budget: the benchmark host has two cores,
// and the load generator shares them with the daemon.
const clients = 2

// jobWait is the long-poll window of GET /jobs/{id}.
const jobWait = "30s"

// sample is one timed request. Times are offsets from the phase start.
// While the phase runs the client only sends, reads bytes and records
// times; decoding and verification happen after it.
type sample struct {
	req     int // index into the phase's request list
	due     time.Duration
	sent    time.Duration
	done    time.Duration
	status  int
	body    []byte // kept unless the phase only needs its checksum
	sum     uint64 // CRC-64 of the body
	trailer http.Header
	err     error
}

// latency is the time the request took from the caller's view: from its
// due time on an open loop, from sending on a closed loop (where due ==
// sent).
func (s *sample) latency() time.Duration { return s.done - s.due }

var crcTable = crc64.MakeTable(crc64.ECMA)

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// send issues one request and reads the whole response into buf.
func send(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "text/plain")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp, fmt.Errorf("read response: %w", err)
	}
	return resp, nil
}

// exchange is how one request is carried out; it fills s.status, s.body
// or s.sum, s.trailer and s.err.
type exchange func(c *http.Client, base string, r *request, s *sample, buf *bytes.Buffer)

// compileExchange POSTs the request; keep selects whether the body is
// kept or only checksummed.
func compileExchange(keep bool) exchange {
	return func(c *http.Client, base string, r *request, s *sample, buf *bytes.Buffer) {
		resp, err := send(c, http.MethodPost, base+r.path, r.body, buf)
		s.err = err
		if resp == nil {
			return
		}
		s.status, s.trailer = resp.StatusCode, resp.Trailer
		s.sum = crc64.Checksum(buf.Bytes(), crcTable)
		if keep {
			s.body = bytes.Clone(buf.Bytes())
		}
	}
}

// jobExchange submits an async job and long-polls it to a terminal
// state; the kept body is the terminal poll's.
func jobExchange(c *http.Client, base string, r *request, s *sample, buf *bytes.Buffer) {
	resp, err := send(c, http.MethodPost, base+r.path, r.body, buf)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		s.err = fmt.Errorf("submit: status %d: %v %s", statusOf(resp), err, truncate(buf.Bytes()))
		return
	}
	loc := resp.Header.Get("Location")
	for {
		resp, err = send(c, http.MethodGet, base+loc+"?wait="+jobWait, nil, buf)
		if err != nil {
			s.err = err
			return
		}
		s.status = resp.StatusCode
		if resp.StatusCode != http.StatusOK || terminal(buf.Bytes()) {
			s.body = bytes.Clone(buf.Bytes())
			return
		}
	}
}

// terminal reports whether a job view is in a terminal state, from the
// state field near the top of the indented JSON, without decoding it.
func terminal(b []byte) bool {
	head := b[:min(len(b), 256)]
	for _, st := range []string{"done", "failed", "cancelled"} {
		if bytes.Contains(head, []byte(`"state": "`+st+`"`)) {
			return true
		}
	}
	return false
}

func statusOf(resp *http.Response) int {
	if resp == nil {
		return 0
	}
	return resp.StatusCode
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// openLoop sends reqs on a fixed schedule of rate per second from two
// connections. A request whose due time passes while both connections
// are busy waits for one, and that wait counts in its latency.
func openLoop(base string, reqs []request, rate float64, ex exchange) []sample {
	samples := make([]sample, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				s.req = i
				s.due = time.Duration(float64(i) / rate * float64(time.Second))
				if d := s.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Since(start)
				ex(cl, base, &reqs[i], s, &buf)
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop runs n clients that each send their next request as soon
// as the previous one completes, until dur has passed or reqs run out.
// Requests in flight at the deadline complete and count.
func closedLoop(base string, reqs []request, n int, dur time.Duration, ex exchange) []sample {
	samples := make([]sample, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			var buf bytes.Buffer
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				s.req = i
				s.sent = time.Since(start)
				s.due = s.sent
				ex(cl, base, &reqs[i], s, &buf)
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	// Every index handed out was sent: clients check the deadline first.
	return samples[:min(int(next.Load()), len(reqs))]
}

// sequential sends reqs one after another on one connection, keeping
// every body; used outside the timed phase.
func sequential(base string, reqs []request, ex exchange) []sample {
	return closedLoop(base, reqs, 1, time.Duration(1<<62), ex)
}
