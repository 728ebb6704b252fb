package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// invocation share RunID; Parent is 0 for the root.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	RunID  string    `json:"run_id"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanLog keeps an invocation's spans in memory until write. It is safe
// for concurrent use: campaign spans close on the SSE reader and the
// worker goroutines.
type spanLog struct {
	runID string
	mu    sync.Mutex
	spans []span
}

func newSpanLog(runID string) *spanLog { return &spanLog{runID: runID} }

// start opens a span and returns its ID.
func (l *spanLog) start(name string, parent int) int {
	return l.add(name, parent, time.Now(), time.Time{})
}

// add records a span with known bounds (a zero end leaves it open).
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, RunID: l.runID, Name: name, Start: start, End: end})
	return id
}

// end closes span id now and returns its duration in seconds.
func (l *spanLog) end(id int) float64 {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = now
	return now.Sub(s.Start).Seconds()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
