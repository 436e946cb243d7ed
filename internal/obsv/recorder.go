package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// DefaultMaxEvents bounds a recorder's memory: beyond it, new events are
// counted as dropped rather than stored. ~1M events is a few hundred MB of
// JSON, already past what chrome://tracing loads comfortably.
const DefaultMaxEvents = 1 << 20

// Recorder accumulates cycle-timestamped events and renders them as Chrome
// trace-event JSON. Timestamps are simulated processor cycles, written into
// the trace's microsecond field one-to-one, so "1 us" in the viewer reads
// as one cycle.
//
// Each distinct track name becomes one named thread row in the viewer
// ("bus", "dram", "aes", "merkle.level2", ...). Duration events (Span) draw
// the per-resource occupancy slices; async Begin/End pairs draw whole
// memory transactions as open/close ranges on their own track, tying the
// per-resource slices together via the shared transaction id argument.
//
// The nil Recorder discards everything, so subsystems record
// unconditionally at the cost of one branch. A Recorder is not safe for
// concurrent use.
type Recorder struct {
	max     int
	events  []Event
	dropped uint64
	tids    map[string]int
	tracks  []string
}

// Event is one recorded trace event.
type Event struct {
	Track string
	Name  string
	Ph    byte   // 'X' complete, 'i' instant, 'b'/'e' async begin/end, 'C' counter
	Ts    uint64 // start cycle
	Dur   uint64 // 'X' only
	ID    uint64 // async events and span arguments
	HasID bool
	Val   float64 // 'C' only: the counter-track value at Ts
}

// NewRecorder builds a recorder holding at most maxEvents events;
// maxEvents <= 0 selects DefaultMaxEvents.
func NewRecorder(maxEvents int) *Recorder {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Recorder{max: maxEvents, tids: make(map[string]int)}
}

func (r *Recorder) add(e Event) {
	if len(r.events) >= r.max {
		r.dropped++
		return
	}
	if e.Ph != 'C' {
		// Counter events render on per-process counter tracks named by the
		// event itself; they never claim a thread row.
		if _, ok := r.tids[e.Track]; !ok {
			r.tids[e.Track] = len(r.tracks) + 1
			r.tracks = append(r.tracks, e.Track)
		}
	}
	r.events = append(r.events, e)
}

// Span records a completed occupancy interval [start, end) on a track.
// Intervals with end <= start are recorded with zero duration.
func (r *Recorder) Span(track, name string, start, end uint64) {
	if r != nil {
		r.span(track, name, start, end, 0, false)
	}
}

// SpanID is Span with a transaction id argument, so a resource slice can be
// traced back to the memory transaction that caused it.
func (r *Recorder) SpanID(track, name string, start, end, id uint64) {
	if r != nil {
		r.span(track, name, start, end, id, true)
	}
}

// span records the event of Span and SpanID. It stays out of line so that
// both inline at their call sites as the nil check: the shared timelines
// call Span on every reservation, instrumented or not.
//
//go:noinline
func (r *Recorder) span(track, name string, start, end, id uint64, hasID bool) {
	var dur uint64
	if end > start {
		dur = end - start
	}
	r.add(Event{Track: track, Name: name, Ph: 'X', Ts: start, Dur: dur, ID: id, HasID: hasID})
}

// Instant records a point event (tamper detections, overflow events).
func (r *Recorder) Instant(track, name string, ts uint64) {
	if r == nil {
		return
	}
	r.add(Event{Track: track, Name: name, Ph: 'i', Ts: ts})
}

// Begin opens an async range with the given id on a track.
func (r *Recorder) Begin(track, name string, id, ts uint64) {
	if r == nil {
		return
	}
	r.add(Event{Track: track, Name: name, Ph: 'b', Ts: ts, ID: id, HasID: true})
}

// End closes the async range opened by Begin with the same track, name, and
// id.
func (r *Recorder) End(track, name string, id, ts uint64) {
	if r == nil {
		return
	}
	r.add(Event{Track: track, Name: name, Ph: 'e', Ts: ts, ID: id, HasID: true})
}

// CounterValue records one point of a Perfetto counter track: a "C"-phase
// event whose args carry the track's value at ts. Each distinct name is
// its own counter track in the viewer, drawn as a stepped area chart —
// this is how sampled metric trajectories (hit rates, occupancies,
// utilizations) merge into the span timeline.
func (r *Recorder) CounterValue(name string, ts uint64, v float64) {
	if r == nil {
		return
	}
	r.add(Event{Track: "counter", Name: name, Ph: 'C', Ts: ts, Val: v})
}

// Len reports how many events are stored (zero for nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dropped reports how many events were discarded at the cap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// jsonEvent is the Chrome trace-event wire format.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON renders the trace in Chrome trace-event JSON object format:
// thread-name metadata first (one named row per track, in first-use order),
// then the events in record order. Output is byte-stable for identical
// runs; load it in chrome://tracing or https://ui.perfetto.dev.
func (r *Recorder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(e jsonEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	if r != nil {
		for _, track := range r.tracks {
			if err := emit(jsonEvent{
				Name: "thread_name", Cat: "__metadata", Ph: "M",
				Pid: 1, Tid: r.tids[track],
				Args: map[string]any{"name": track},
			}); err != nil {
				return err
			}
		}
		for i := range r.events {
			e := &r.events[i]
			je := jsonEvent{
				Name: e.Name, Cat: e.Track, Ph: string(e.Ph),
				Ts: e.Ts, Pid: 1, Tid: r.tids[e.Track],
			}
			if e.Ph == 'X' {
				dur := e.Dur
				je.Dur = &dur
			}
			if e.Ph == 'i' {
				je.S = "t" // thread-scoped instant marker
			}
			if e.Ph == 'C' {
				// Counter tracks are per-process: no tid, value in args.
				je.Tid = 0
				je.Args = map[string]any{"value": e.Val}
			}
			if e.HasID {
				if e.Ph == 'b' || e.Ph == 'e' {
					je.ID = fmt.Sprintf("%#x", e.ID)
				} else {
					je.Args = map[string]any{"txn": e.ID}
				}
			}
			if err := emit(je); err != nil {
				return err
			}
		}
	}
	// otherData carries the dropped-event count so downstream tooling
	// (secmemobs -validate) can flag a truncated trace instead of treating
	// a silently short timeline as complete.
	var dropped uint64
	if r != nil {
		dropped = r.dropped
	}
	tail := fmt.Sprintf("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedEvents\":%d,\"timeUnit\":\"processor cycles (1 trace us = 1 cycle)\"}}\n", dropped)
	if _, err := bw.WriteString(tail); err != nil {
		return err
	}
	return bw.Flush()
}
