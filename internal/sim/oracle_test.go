package sim

import (
	"math/rand"
	"testing"
)

// refTimeline is the brute-force placement model the shared timelines are
// checked against. It keeps each server's busy cycles as a per-cycle
// bitmap and places a request on the server whose last busy cycle is
// earliest, the lowest index on ties; the request starts at the later of
// its arrival and the cycle after that server's last busy cycle. The
// placement rule is reserve's choice of best and start and nothing else,
// so a change to the rule changes only those lines.
type refTimeline struct {
	busy         [][]bool // busy[s][c]: server s is occupied in cycle c
	busyCycles   Time
	waitedCycles Time
	issues       uint64
}

func newRefTimeline(servers int) *refTimeline {
	return &refTimeline{busy: make([][]bool, servers)}
}

// freeAfter returns the cycle after server s's last busy cycle, 0 for a
// server that was never busy.
func (r *refTimeline) freeAfter(s int) Time {
	for c := len(r.busy[s]) - 1; c >= 0; c-- {
		if r.busy[s][c] {
			return Time(c) + 1
		}
	}
	return 0
}

// reserve places one request and returns its start and done cycles.
func (r *refTimeline) reserve(q req) (start, done Time) {
	best := 0
	for s := 1; s < len(r.busy); s++ {
		if r.freeAfter(s) < r.freeAfter(best) {
			best = s
		}
	}
	start = max(q.at, r.freeAfter(best))
	for c := start; c < start+q.occ; c++ {
		for Time(len(r.busy[best])) <= c {
			r.busy[best] = append(r.busy[best], false)
		}
		if r.busy[best][c] {
			panic("sim: reference model double-booked a server")
		}
		r.busy[best][c] = true
	}
	r.busyCycles += q.occ
	r.waitedCycles += start - q.at
	r.issues++
	return start, start + q.lat
}

func (r *refTimeline) utilization(end Time) float64 {
	if end == 0 {
		return 0
	}
	return float64(r.busyCycles) / (float64(end) * float64(len(r.busy)))
}

// req is one request: it arrives at at, occupies a server for occ >= 1
// cycles and completes lat cycles after it starts.
type req struct{ at, occ, lat Time }

// checkOracle presents reqs to a timeline of servers servers and to the
// reference model in order, and requires every start and done, and every
// statistic, to agree. It also checks two invariants that hold under any
// placement rule: no cycle has more requests in service than there are
// servers, and nothing starts before it arrives.
func checkOracle(t *testing.T, servers int, reqs []req) {
	t.Helper()
	tl := NewTimeline(servers)
	ref := newRefTimeline(servers)
	inService := map[Time]int{}
	var end Time
	for i, q := range reqs {
		start, done := tl.Reserve(q.at, q.occ, q.lat, "op")
		wantStart, wantDone := ref.reserve(q)
		if start != wantStart || done != wantDone {
			t.Fatalf("%d servers, request %d %+v: (start, done) = (%d, %d), model (%d, %d)",
				servers, i, q, start, done, wantStart, wantDone)
		}
		if start < q.at {
			t.Fatalf("request %d %+v starts at %d, before it arrives", i, q, start)
		}
		for c := start; c < start+q.occ; c++ {
			if inService[c]++; inService[c] > servers {
				t.Fatalf("request %d %+v: cycle %d has %d requests in service on %d servers",
					i, q, c, inService[c], servers)
			}
		}
		end = max(end, done)
	}
	if tl.BusyCycles() != ref.busyCycles {
		t.Errorf("BusyCycles = %d, model %d", tl.BusyCycles(), ref.busyCycles)
	}
	if tl.WaitedCycles() != ref.waitedCycles {
		t.Errorf("WaitedCycles = %d, model %d", tl.WaitedCycles(), ref.waitedCycles)
	}
	if tl.Issues() != ref.issues {
		t.Errorf("Issues = %d, model %d", tl.Issues(), ref.issues)
	}
	for _, e := range []Time{0, 1, end / 2, end, 2 * end} {
		if got, want := tl.Utilization(e), ref.utilization(e); got != want {
			t.Errorf("Utilization(%d) = %v, model %v", e, got, want)
		}
	}
}

// decodeReqs turns fuzz bytes into a server count and a request sequence.
// Byte 0 picks 1-4 servers. Each later triple moves the arrival cycle by a
// signed step, so arrivals go backwards as the controller presents them,
// and sets the request's occupancy and latency.
func decodeReqs(data []byte) (servers int, reqs []req) {
	if len(data) == 0 {
		return 1, nil
	}
	servers = int(data[0]%4) + 1
	now := Time(1000)
	for data = data[1:]; len(data) >= 3; data = data[3:] {
		step := int64(int8(data[0]))
		if step < 0 && Time(-step) > now {
			now = 0
		} else {
			now = Time(int64(now) + step)
		}
		occ := Time(data[1]%32) + 1
		reqs = append(reqs, req{at: now, occ: occ, lat: occ + Time(data[2]%96)})
	}
	return servers, reqs
}

// randomInput draws the fuzz bytes of n requests; see decodeReqs.
func randomInput(rng *rand.Rand, n int) []byte {
	data := make([]byte, 1+3*n)
	rng.Read(data)
	return data
}

// checkAll checks one fuzz input against the model.
func checkAll(t *testing.T, data []byte) {
	servers, reqs := decodeReqs(data)
	checkOracle(t, servers, reqs)
}

// TestTimelinesMatchOracle checks the timeline against the brute-force
// model on random request sequences over 1-4 servers.
func TestTimelinesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		checkAll(t, randomInput(rng, 1+rng.Intn(200)))
	}
}

// FuzzTimeline is TestTimelinesMatchOracle over fuzzed request sequences,
// seeded with one random sequence per server count.
func FuzzTimeline(f *testing.F) {
	f.Add([]byte{0x00})
	rng := rand.New(rand.NewSource(1))
	for servers := byte(0); servers < 4; servers++ {
		data := randomInput(rng, 100)
		data[0] = data[0]&^3 | servers
		f.Add(data)
	}
	f.Fuzz(checkAll)
}
