package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/ftdse"
)

// span is one timed call of the traced run. Spans of one operation share
// op; parent is the id of the enclosing span (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// StartUs and EndUs are microseconds since the recorder started.
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.EndUs - s.StartUs) / 1000 }

// recorder keeps the traced run's spans in memory. A nil recorder
// records nothing, which is how the untraced run calls the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return 0
	}
	now := float64(time.Since(r.epoch)) / float64(time.Microsecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, StartUs: now})
	return len(r.spans)
}

// end closes the span opened under id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := float64(time.Since(r.epoch)) / float64(time.Microsecond)
	r.mu.Lock()
	r.spans[id-1].EndUs = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfMs returns, per span id, the span's duration minus the part of
// it that its children cover.
func selfMs(spans []span) map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUs < kids[j].StartUs })
		covered, reach := 0.0, s.StartUs
		for _, k := range kids {
			lo, hi := max(k.StartUs, reach), min(k.EndUs, s.EndUs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = (s.EndUs - s.StartUs - covered) / 1000
	}
	return out
}

// spanKey carries the enclosing span through a Solve context, so the
// engine decorator can parent its spans.
type spanKey struct{}

type spanRef struct{ op, id int }

func withSpan(ctx context.Context, op, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, id})
}

// timedEngine is the traced run's engine decorator: it delegates Name
// and Explore to a built-in engine and records a span around Explore.
type timedEngine struct {
	inner ftdse.Engine
	rec   *recorder
}

func (e timedEngine) Name() string { return e.inner.Name() }

func (e timedEngine) Explore(ctx context.Context, s *ftdse.Search) error {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	id := e.rec.begin("engine."+e.inner.Name(), ref.op, ref.id)
	defer e.rec.end(id)
	return e.inner.Explore(ctx, s)
}

// writeSpans writes the spans as JSON lines to
// <dir>/spans-<workload>-seed<seed>.jsonl.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
