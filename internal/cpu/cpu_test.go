package cpu

import (
	"testing"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/sim"
)

// fakeMem returns fixed latencies and lets tests observe issue times.
type fakeMem struct {
	dataLat   sim.Time
	authLat   sim.Time
	miss      bool
	issues    []sim.Time
	perfectL1 bool
}

func (f *fakeMem) Access(now sim.Time, addr uint64, write bool) core.AccessResult {
	f.issues = append(f.issues, now)
	if f.perfectL1 {
		return core.AccessResult{DataReady: now + 2, AuthDone: now + 2}
	}
	return core.AccessResult{
		DataReady: now + f.dataLat,
		AuthDone:  now + f.dataLat + f.authLat,
		L2Miss:    f.miss,
	}
}

// sliceSource replays a fixed event list.
type sliceSource struct {
	evs []Event
	i   int
}

func (s *sliceSource) Next() (Event, bool) {
	if s.i >= len(s.evs) {
		return Event{}, false
	}
	e := s.evs[s.i]
	s.i++
	return e, true
}

func testCfg() config.SystemConfig {
	cfg := config.Default()
	cfg.Req = config.AuthLazy
	return cfg
}

func TestIdealIPCApproachesIssueWidth(t *testing.T) {
	// All instructions non-memory except rare perfect-L1 accesses: IPC
	// should approach the issue width (3).
	cfg := testCfg()
	mem := &fakeMem{perfectL1: true}
	evs := make([]Event, 100)
	for i := range evs {
		evs[i] = Event{Addr: uint64(i) * 64, NonMemBefore: 99}
	}
	res := New(cfg, mem).Run(&sliceSource{evs: evs}, 10000)
	if ipc := res.IPC(); ipc < 2.5 || ipc > 3.01 {
		t.Errorf("ideal IPC = %.2f, want close to 3", ipc)
	}
}

func TestMemoryLatencyLowersIPC(t *testing.T) {
	mk := func(lat sim.Time) float64 {
		cfg := testCfg()
		mem := &fakeMem{dataLat: lat, miss: true}
		evs := make([]Event, 500)
		for i := range evs {
			evs[i] = Event{Addr: uint64(i) * 64, NonMemBefore: 9, Dependent: true}
		}
		return New(cfg, mem).Run(&sliceSource{evs: evs}, 1e6).IPC()
	}
	fast, slow := mk(20), mk(400)
	if slow >= fast {
		t.Errorf("IPC with 400-cycle memory (%.3f) not below 20-cycle (%.3f)", slow, fast)
	}
	if fast/slow < 2 {
		t.Errorf("dependent-load IPC barely sensitive to latency: %.3f vs %.3f", fast, slow)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	// Two dependent loads: the second must issue no earlier than the
	// first's data-ready time.
	cfg := testCfg()
	mem := &fakeMem{dataLat: 300, miss: true}
	evs := []Event{
		{Addr: 0, NonMemBefore: 0},
		{Addr: 64, NonMemBefore: 0, Dependent: true},
	}
	New(cfg, mem).Run(&sliceSource{evs: evs}, 100)
	if len(mem.issues) != 2 {
		t.Fatalf("issues = %d", len(mem.issues))
	}
	if mem.issues[1] < mem.issues[0]+300 {
		t.Errorf("dependent load issued at %d, before producer data at %d",
			mem.issues[1], mem.issues[0]+300)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	cfg := testCfg()
	mem := &fakeMem{dataLat: 300, miss: true}
	evs := []Event{
		{Addr: 0, NonMemBefore: 0},
		{Addr: 64, NonMemBefore: 0},
	}
	New(cfg, mem).Run(&sliceSource{evs: evs}, 100)
	if mem.issues[1] > mem.issues[0]+5 {
		t.Errorf("independent load issued %d cycles after the first",
			mem.issues[1]-mem.issues[0])
	}
}

func TestMSHRBoundsOutstandingMisses(t *testing.T) {
	cfg := testCfg()
	cfg.MSHRs = 2
	mem := &fakeMem{dataLat: 1000, miss: true}
	evs := make([]Event, 4)
	for i := range evs {
		evs[i] = Event{Addr: uint64(i) * 64}
	}
	New(cfg, mem).Run(&sliceSource{evs: evs}, 100)
	// Third miss must wait for the first to complete.
	if mem.issues[2] < mem.issues[0]+1000 {
		t.Errorf("third miss issued at %d with only 2 MSHRs (first done %d)",
			mem.issues[2], mem.issues[0]+1000)
	}
}

func TestROBLimitsRunahead(t *testing.T) {
	// One very slow load followed by many independent instructions: the
	// dispatch front cannot run more than ROBSize instructions past it.
	cfg := testCfg()
	cfg.ROBSize = 32
	mem := &fakeMem{dataLat: 100000, miss: true}
	evs := []Event{{Addr: 0, NonMemBefore: 0}}
	for i := 0; i < 10; i++ {
		evs = append(evs, Event{Addr: uint64(i+1) * 64, NonMemBefore: 200, Dependent: false})
	}
	// Use perfect misses for followers so only the first is slow.
	res := New(cfg, mem).Run(&sliceSource{evs: evs}, 1e6)
	// The run cannot finish before the slow load retires.
	if res.Cycles < 100000 {
		t.Errorf("cycles = %d, slow load ignored by retirement", res.Cycles)
	}
}

func TestAuthPolicies(t *testing.T) {
	run := func(req config.AuthReq) sim.Time {
		cfg := testCfg()
		cfg.Req = req
		mem := &fakeMem{dataLat: 200, authLat: 500, miss: true}
		// Dependent chain of loads: policy determines how auth latency
		// enters the critical path.
		evs := make([]Event, 50)
		for i := range evs {
			evs[i] = Event{Addr: uint64(i) * 64, NonMemBefore: 0, Dependent: true}
		}
		return New(cfg, mem).Run(&sliceSource{evs: evs}, 1e6).Cycles
	}
	lazy, commit, safe := run(config.AuthLazy), run(config.AuthCommit), run(config.AuthSafe)
	if !(lazy < safe) {
		t.Errorf("lazy (%d) not faster than safe (%d)", lazy, safe)
	}
	if !(commit <= safe) {
		t.Errorf("commit (%d) slower than safe (%d)", commit, safe)
	}
	if !(lazy <= commit) {
		t.Errorf("lazy (%d) slower than commit (%d)", lazy, commit)
	}
	// Safe serializes auth into the dependence chain: ~50 * 700.
	if safe < 30000 {
		t.Errorf("safe cycles = %d, auth latency not serialized", safe)
	}
}

func TestCommitStallsOnlyThroughROB(t *testing.T) {
	// With a huge ROB and independent loads, commit ≈ lazy; with a tiny
	// ROB, commit degrades toward safe.
	run := func(rob int, req config.AuthReq) sim.Time {
		cfg := testCfg()
		cfg.ROBSize = rob
		cfg.Req = req
		mem := &fakeMem{dataLat: 200, authLat: 2000, miss: true}
		evs := make([]Event, 100)
		for i := range evs {
			evs[i] = Event{Addr: uint64(i) * 64, NonMemBefore: 3}
		}
		return New(cfg, mem).Run(&sliceSource{evs: evs}, 1e6).Cycles
	}
	bigCommit := run(4096, config.AuthCommit)
	smallCommit := run(8, config.AuthCommit)
	if smallCommit <= bigCommit {
		t.Errorf("commit with 8-entry ROB (%d) not slower than 4096-entry (%d)",
			smallCommit, bigCommit)
	}
}

func TestInstructionBudgetRespected(t *testing.T) {
	cfg := testCfg()
	mem := &fakeMem{perfectL1: true}
	evs := make([]Event, 1000)
	for i := range evs {
		evs[i] = Event{Addr: uint64(i) * 64, NonMemBefore: 99}
	}
	res := New(cfg, mem).Run(&sliceSource{evs: evs}, 500)
	if res.Instructions > 501 {
		t.Errorf("ran %d instructions, budget 500", res.Instructions)
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Instructions: 300, Cycles: 100}
	if r.IPC() != 3 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if s := r.Seconds(); s != 100/(5e9) {
		t.Errorf("Seconds = %v", s)
	}
	var zero Result
	if zero.IPC() != 0 {
		t.Error("zero-cycle IPC not 0")
	}
}

func TestStoresDoNotBlockDependence(t *testing.T) {
	cfg := testCfg()
	mem := &fakeMem{dataLat: 500, miss: true}
	evs := []Event{
		{Addr: 0, Write: true},
		{Addr: 64, Dependent: true}, // depends on a *load*, none yet: no stall
	}
	New(cfg, mem).Run(&sliceSource{evs: evs}, 100)
	if mem.issues[1] > mem.issues[0]+5 {
		t.Errorf("store blocked a dependent access: %d vs %d", mem.issues[1], mem.issues[0])
	}
}
