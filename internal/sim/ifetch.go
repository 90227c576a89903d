package sim

import (
	"fmt"
	"math"

	"lacc/internal/mem"
)

// maxProbesPerOp bounds instruction-cache work per trace operation; long
// compute gaps re-execute loop bodies whose lines are already resident, so
// capping probes loses no fidelity worth its cost.
const maxProbesPerOp = 8

// The instruction-fetch accumulators run in one of two arithmetically
// identical modes. The original formulation keeps two float64 accumulators
// (pending fetch energy in instructions, pending line fetches in lines)
// fed FetchPerOp + gap per operation. When FetchPerOp is a multiple of
// 1/8 — every shipped configuration; Default uses 2 — every value those
// floats ever take is an exact multiple of 2^-6 far below 2^50, so all
// additions, the /8 scale, the per-probe decrements and the floor
// conversions are exact, and the whole trajectory can be tracked in
// integer 64ths of a cache line instead: same emitted energy events, same
// probe counts, same program-counter walk, bit for bit, without the
// float<->int conversions on the hottest call in the simulator. Reset
// precomputes fetch8 = FetchPerOp*8 when the fixed-point mode applies
// (fetch8 < 0 selects the float fallback for exotic configurations).

// fetchFixedPoint returns FetchPerOp scaled to eighths of an instruction
// when that is exactly an integer, or -1 when the float fallback must run.
func fetchFixedPoint(fetchPerOp float64) int64 {
	f8 := fetchPerOp * 8
	if f8 >= 0 && f8 < 1<<40 && f8 == math.Trunc(f8) {
		return int64(f8)
	}
	return -1
}

// instrFetch models the instruction stream for one trace operation: it
// charges L1-I fetch energy for the executed instructions (FetchPerOp per
// operation plus one per compute-gap cycle) and walks the core's program
// counter over the workload's code footprint, simulating an L1-I probe per
// consumed instruction line. Instruction lines live in the R-NUCA
// per-cluster replica slices; fetch hits are overlapped by the in-order
// pipeline and cost no time, misses stall the core.
//
// Once the whole code footprint is resident in the L1-I (l1iWarm) every
// probe is a hit by construction — no insertions means no evictions, so
// residency is permanent — and the walk reduces to counting: same hit
// totals and program-counter trajectory, no tag-array traffic.
func (s *Simulator) instrFetch(c *coreState, gap uint32) {
	if s.fetch8 < 0 {
		s.instrFetchFloat(c, gap)
		return
	}
	// Fixed-point mode: instrs8 is the executed instruction count in
	// eighths; energy8 accumulates it in eighths of an instruction,
	// fetch64 in 64ths of a cache line (one line = 8 instructions).
	instrs8 := s.fetch8 + int64(gap)<<3
	c.energy8 += instrs8
	s.meter.L1IAccesses += uint64(c.energy8 >> 3)
	c.energy8 &= 7

	c.fetch64 += instrs8
	probes := 0
	if c.l1iWarm {
		if probes = int(c.fetch64 >> 6); probes > maxProbesPerOp {
			probes = maxProbesPerOp
		}
		c.fetch64 -= int64(probes) << 6
		c.pc += probes
		for c.pc >= s.cfg.CodeLines {
			c.pc -= s.cfg.CodeLines
		}
		c.l1iHits += uint64(probes)
	} else {
		l1i := s.tiles[c.id].l1i
		for c.fetch64 >= 64 && probes < maxProbesPerOp {
			c.fetch64 -= 64
			probes++
			c.pc++
			if c.pc >= s.cfg.CodeLines {
				c.pc = 0
			}
			addr := codeBase + mem.Addr(c.pc)*mem.LineBytes
			if line := l1i.Probe(addr); line != nil {
				c.l1iHits++
				l1i.Touch(line, c.now)
				continue
			}
			c.l1iMisses++
			s.instrMiss(c, addr)
		}
	}
	if c.fetch64 > maxProbesPerOp<<6 {
		c.fetch64 = maxProbesPerOp << 6
	}
}

// instrFetchFloat is the float-accumulator formulation, retained for
// configurations whose FetchPerOp is not a multiple of 1/8 (and as the
// executable specification the fixed-point mode mirrors). It always walks
// the L1-I: once the code footprint is resident every probe hits, which
// yields the counters and program counter of instrFetch's counting path.
func (s *Simulator) instrFetchFloat(c *coreState, gap uint32) {
	instrs := s.cfg.FetchPerOp + float64(gap)
	c.energyAcc += instrs
	whole := uint64(c.energyAcc)
	s.meter.L1IAccesses += whole
	c.energyAcc -= float64(whole)

	// One instruction line holds 8 instructions (64 B / 8 B encoding).
	// Multiplying by 0.125 is exact (a power-of-two scale), so the
	// accumulator trajectory is bit-identical to dividing by 8.
	c.fetchAcc += instrs * 0.125
	l1i := s.tiles[c.id].l1i
	for probes := 0; c.fetchAcc >= 1 && probes < maxProbesPerOp; probes++ {
		c.fetchAcc--
		c.pc++
		if c.pc >= s.cfg.CodeLines {
			c.pc = 0
		}
		addr := codeBase + mem.Addr(c.pc)*mem.LineBytes
		if line := l1i.Probe(addr); line != nil {
			c.l1iHits++
			l1i.Touch(line, c.now)
			continue
		}
		c.l1iMisses++
		s.instrMiss(c, addr)
	}
	if c.fetchAcc > float64(maxProbesPerOp) {
		c.fetchAcc = float64(maxProbesPerOp)
	}
}

// instrMiss fetches an instruction line from the requester's cluster
// replica slice (R-NUCA rotational interleaving), going to DRAM when the
// replica slice misses. Instructions are read-only: no directory entry or
// classifier state is maintained for them.
func (s *Simulator) instrMiss(c *coreState, addr mem.Addr) {
	la := mem.LineOf(addr)
	t0 := c.now
	home := s.nuca.InstrHome(la, c.id)

	t := t0 + mem.Cycle(s.cfg.L1ILatency)
	var l1l2, offchip mem.Cycle
	l1l2 = t - t0

	tArr := s.mesh.Unicast(c.id, home, 1, t)
	l1l2 += tArr - t
	t = tArr

	ht := &s.tiles[home]
	l2line := ht.l2.Probe(la)
	if l2line == nil {
		var fillDone mem.Cycle
		l2line, fillDone = s.l2Fill(home, la, t)
		offchip += fillDone - t
		t = fillDone
		// No directory entry: replicas are read-only.
	}
	t += mem.Cycle(s.cfg.L2Latency)
	l1l2 += mem.Cycle(s.cfg.L2Latency)
	ht.l2.Touch(l2line, t)
	s.meter.L2LineReads++

	tEnd := s.mesh.Unicast(home, c.id, 9, t)
	l1l2 += tEnd - t

	l1i := s.tiles[c.id].l1i
	line, _, evicted := l1i.Insert(la) // instruction victims are clean; drop silently
	if evicted {
		c.l1iResident-- // the victim was a resident code line
	}
	c.l1iResident++
	if c.l1iResident == s.cfg.CodeLines {
		c.l1iWarm = true
	}
	line.State = lineS
	line.Home = int16(home)
	l1i.Touch(line, tEnd)

	c.bd.L1ToL2 += float64(l1l2)
	c.bd.OffChip += float64(offchip)
	if s.cfg.CheckValues {
		if sum := l1l2 + offchip; sum != tEnd-t0 {
			panic(fmt.Sprintf("sim: ifetch components %d != total %d", sum, tEnd-t0))
		}
	}
	c.now = tEnd
}
