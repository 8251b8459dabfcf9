package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval: a request, a lifecycle iteration or
// arrival (the parent of its requests), or one in-process layer call.
type span struct {
	ID     uint64 `json:"id"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent uint64 `json:"parent,omitempty"`
}

// tracer keeps every span in memory and writes them out when the run
// ends. Each connection (and the layer phase) owns a spanBuf, so
// recording takes no lock. A disabled tracer hands out buffers that
// still number parents but record nothing.
type tracer struct {
	on     bool
	origin time.Time
	bufs   []*spanBuf
}

// spanBuf is one goroutine's span buffer; IDs carry the buffer number in
// their top bits so they are unique across buffers.
type spanBuf struct {
	t      *tracer
	prefix uint64
	seq    uint64
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// buf returns a new buffer for goroutine id.
func (t *tracer) buf(id int) *spanBuf {
	b := &spanBuf{t: t, prefix: uint64(id+1) << 40}
	t.bufs = append(t.bufs, b)
	return b
}

// next reserves a span ID (used for parents recorded after their children).
func (b *spanBuf) next() uint64 {
	b.seq++
	return b.prefix | b.seq
}

// add records a span under parent with a fresh ID.
func (b *spanBuf) add(op string, parent uint64, start, end time.Time) {
	b.addWithID(b.next(), op, parent, start, end)
}

// addWithID records a span with a reserved ID.
func (b *spanBuf) addWithID(id uint64, op string, parent uint64, start, end time.Time) {
	if !b.t.on {
		return
	}
	b.spans = append(b.spans, span{
		ID: id, Op: op, Parent: parent,
		Start: start.Sub(b.t.origin).Nanoseconds(), End: end.Sub(b.t.origin).Nanoseconds(),
	})
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// write dumps every span as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
