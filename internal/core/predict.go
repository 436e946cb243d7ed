package core

import "secmem/internal/sim"

// Counter prediction (config.EncCounterPredict) is the comparison point of
// the paper's Figure 6, the scheme of Shi et al. [16]. Instead of caching
// counters on-chip, the controller keeps a base counter per encryption page,
// predicts a missing block's counter as base, base+1, ..., base+PredictN-1,
// and precomputes all PredictN candidate pads while the block and its actual
// 64-bit counter, stored beside it in memory, travel from DRAM:
//
//   - a correct prediction whose pad finished in time hides decryption
//     entirely (a timely pad);
//   - a correct prediction with a late pad waits for the AES engine;
//   - a misprediction generates the pad after the counter arrives, like a
//     counter-cache miss, and relearns the page base.
//
// The costs the paper highlights are modelled: PredictN-fold AES issue
// bandwidth per decryption (hence Figure 6's one- and two-engine machines,
// config.AESEngines) and the bus occupancy of the counter shipped with
// every transfer.

// PredictN is the number of counter values predicted per decryption, the
// paper's recommended N = 5.
const PredictN = 5

// CounterBytes is the per-block counter each prediction-mode transfer
// ships beside the block.
const CounterBytes = 8

// predictor is the prediction state: every block's counter and every
// page's base.
type predictor struct {
	ctr     map[uint64]uint64 // data block address -> counter
	base    map[uint64]uint64 // encryption page -> base counter
	correct uint64            // correct predictions
}

// CorrectPredictions counts the decryptions whose counter was among the
// predicted values, zero outside prediction mode. Stats.PadReads counts
// every decryption.
func (c *Controller) CorrectPredictions() uint64 {
	if c.pred == nil {
		return 0
	}
	return c.pred.correct
}

func (c *Controller) predictPage(addr uint64) uint64 {
	return addr / (uint64(c.cfg.PageBlocks) * BlockSize)
}

// predictRead decrypts a block whose data and counter arrive at arrive,
// having been requested at now, and returns when the plaintext is ready.
func (c *Controller) predictRead(now, arrive sim.Time, addr uint64) sim.Time {
	p := c.pred
	page := c.predictPage(addr)
	base := p.base[page]
	var padDone [PredictN]sim.Time
	for i := range padDone {
		padDone[i] = c.aes.GenerateBlockPads(now)
	}
	c.Stats.PadReads++
	actual := p.ctr[addr]
	if actual >= base && actual < base+PredictN {
		p.correct++
		done := padDone[actual-base]
		if done <= arrive {
			c.Stats.TimelyPads++
		}
		return max(arrive, done) + 1
	}
	p.base[page] = actual
	return c.aes.GenerateBlockPads(arrive) + 1
}

// predictWriteBack re-encrypts a dirty block under its next counter, which
// the page base learns, and writes block and counter out.
//
// Unlike every other scheme's posted write-back (writeBackData), the bus is
// reserved only once the pad is ready. This is the baseline's model as
// Figure 6 reports it, and the goldens pin it: posting these write-backs
// too would be a model change, and it moves the baseline's numbers.
func (c *Controller) predictWriteBack(now sim.Time, addr uint64) {
	p := c.pred
	p.ctr[addr]++
	p.base[c.predictPage(addr)] = p.ctr[addr]
	padDone := c.aes.GenerateBlockPads(now)
	start := c.bus.Transfer(padDone+1, BlockSize+CounterBytes)
	c.mem.AccessWrite(start)
}
