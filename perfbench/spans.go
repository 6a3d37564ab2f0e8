package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced op. An op is the root span; its
// children are the calls the benchmark makes into each layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an op
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the span log was created
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log: the resident-full workload
// delivers millions of messages per run. Counts and busy times cover every
// traced op; only the log itself stops growing.
const maxSpans = 200_000

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0      time.Time
	spans   []span
	dropped int
	open    int32 // innermost open span, -1 when none
}

func newSpanLog() spanLog { return spanLog{t0: time.Now(), open: -1} }

// begin opens a span under parent and returns its ID, or -1 once the log
// is full.
func (s *spanLog) begin(name string, parent int32) int32 {
	if len(s.spans) >= maxSpans {
		s.dropped++
		return -1
	}
	id := int32(len(s.spans))
	s.spans = append(s.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(s.t0))})
	s.open = id
	return id
}

// end closes a span begun with begin; -1 is ignored.
func (s *spanLog) end(id int32) {
	if id < 0 {
		return
	}
	s.spans[id].End = int64(time.Since(s.t0))
	s.open = s.spans[id].Parent
}

// add records an already-timed interval as a closed span under parent.
func (s *spanLog) add(name string, parent int32, start time.Time, d time.Duration) {
	if len(s.spans) >= maxSpans {
		s.dropped++
		return
	}
	st := int64(start.Sub(s.t0))
	s.spans = append(s.spans, span{ID: int32(len(s.spans)), Parent: parent, Name: name, Start: st, End: st + int64(d)})
}

// write stores the log as one JSON document.
func (s *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	doc := struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{s.dropped, s.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("span log: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	return nil
}
