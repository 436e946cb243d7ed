package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"secmem/internal/config"
	"secmem/internal/sim"
)

// randomSource emits a deterministic random event stream for property
// testing the core model's invariants.
type randomSource struct {
	rng *rand.Rand
	n   int
}

func (s *randomSource) Next() (Event, bool) {
	if s.n <= 0 {
		return Event{}, false
	}
	s.n--
	return Event{
		Addr:         uint64(s.rng.Intn(1 << 16)),
		Write:        s.rng.Intn(4) == 0,
		NonMemBefore: uint32(s.rng.Intn(20)),
		Dependent:    s.rng.Intn(3) == 0,
	}, true
}

func TestIPCNeverExceedsIssueWidth(t *testing.T) {
	f := func(seed int64, latRaw uint16) bool {
		lat := sim.Time(latRaw%500) + 1
		cfg := config.Default()
		cfg.Req = config.AuthLazy
		mem := &fakeMem{dataLat: lat, miss: true}
		src := &randomSource{rng: rand.New(rand.NewSource(seed)), n: 300}
		res := New(cfg, mem).Run(src, 1e6)
		return res.IPC() <= IssueWidth+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCyclesMonotonicInMemoryLatency(t *testing.T) {
	f := func(seed int64, baseRaw uint16) bool {
		base := sim.Time(baseRaw%300) + 10
		run := func(lat sim.Time) sim.Time {
			cfg := config.Default()
			cfg.Req = config.AuthLazy
			mem := &fakeMem{dataLat: lat, miss: true}
			src := &randomSource{rng: rand.New(rand.NewSource(seed)), n: 200}
			return New(cfg, mem).Run(src, 1e6).Cycles
		}
		return run(base) <= run(base*2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSafeNeverFasterThanLazy(t *testing.T) {
	f := func(seed int64, authRaw uint16) bool {
		auth := sim.Time(authRaw%800) + 1
		run := func(req config.AuthReq) sim.Time {
			cfg := config.Default()
			cfg.Req = req
			mem := &fakeMem{dataLat: 150, authLat: auth, miss: true}
			src := &randomSource{rng: rand.New(rand.NewSource(seed)), n: 200}
			return New(cfg, mem).Run(src, 1e6).Cycles
		}
		lazy := run(config.AuthLazy)
		commit := run(config.AuthCommit)
		safe := run(config.AuthSafe)
		return lazy <= commit && commit <= safe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestInstructionAccountingExact(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		budget := uint64(nRaw%5000) + 100
		cfg := config.Default()
		mem := &fakeMem{perfectL1: true}
		src := &randomSource{rng: rand.New(rand.NewSource(seed)), n: 1 << 20}
		res := New(cfg, mem).Run(src, budget)
		// The unbounded source means the run must stop within one batch of
		// the budget.
		return res.Instructions <= budget+20 && res.Instructions >= budget-20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
