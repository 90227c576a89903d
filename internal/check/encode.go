package check

// Canonical state encoding: the BFS visited-set key. Soundness rests on
// two arguments.
//
// Timing independence. With UseTimestamp off and the line alphabet small
// enough to rule out capacity evictions, no protocol decision reads a
// clock, an LRU position, a mesh or DRAM queue, or a busy window — those
// only shape latencies. Two states equal under this encoding therefore
// have identical transition behavior for every action, and the checker
// may explore with zero gaps while the counterexample trace replays with
// large ones.
//
// Value abstraction. Version numbers grow without bound, but the
// protocol only ever compares them for equality (checkVersion, the
// audit), never for order on any path reachable at this bound (the
// ordered merge in L2Evict's back-invalidation requires a capacity
// eviction). Renumbering each line's versions by first appearance —
// golden, DRAM, L2, then copies in core order — preserves all equality
// patterns, collapsing the infinite value space to a handful of
// ordinals. Utilization counters are compared only against thresholds
// (>= PCT for classification, >= RATThreshold <= RATMax for promotion;
// both after increment), so values at or above max(PCT, RATMax) are
// interchangeable and saturate there.
//
// Everything behaviorally relevant is included: page classification and
// private-page owner, home L2 presence/version/dirtiness, directory
// state, owner, identified sharers (sorted; Add order does not matter),
// overflow count, the classifier's tracked cores in slot order (slots
// only move free→used between resets, so slot order is determined by the
// tracked set's history and matters to the Limited-k replacement
// policy), and every private copy's state, dirtiness, version and
// saturated utilization.

import (
	"lacc/internal/sim"
)

// encode writes snap's canonical encoding into the runner's key buffer
// and returns it; the result is valid until the next encode.
func (r *runner) encode(snap []sim.LineSnapshot) []byte {
	b := r.key[:0]
	for i := range snap {
		ls := &snap[i]

		// Per-line version renumbering by first appearance.
		var seen [8]uint64
		nSeen := 0
		num := func(v uint64) byte {
			for j := 0; j < nSeen; j++ {
				if seen[j] == v {
					return byte(j)
				}
			}
			if nSeen < len(seen) {
				seen[nSeen] = v
				nSeen++
				return byte(nSeen - 1)
			}
			// More distinct versions than slots: fall back to the raw
			// value folded to a byte plus the overflow marker. Unreachable
			// at checker bounds (golden+DRAM+L2+copies <= 8 sources).
			return 0xff ^ byte(v)
		}

		b = append(b, num(ls.Golden), num(ls.DRAM))
		flags := byte(0)
		if ls.PageKnown {
			flags |= 1
		}
		if ls.PageShared {
			flags |= 2
		}
		b = append(b, flags, byte(ls.PageOwner+1))

		if ls.L2 != nil {
			b = append(b, 1, byte(ls.L2.Home), num(ls.L2.Version), bit(ls.L2.Dirty))
		} else {
			b = append(b, 0)
		}

		if d := ls.Dir; d != nil {
			b = append(b, 1, byte(d.Home), byte(d.State), byte(d.Owner+1),
				byte(d.Unknown), bit(d.Overflowed), byte(len(d.Sharers)))
			for _, s := range d.Sharers {
				b = append(b, byte(s))
			}
			b = append(b, byte(len(d.Classifier)))
			for _, sc := range d.Classifier {
				ru := int(sc.RemoteUtil)
				if ru > r.satCap {
					ru = r.satCap
				}
				b = append(b, byte(sc.Core), byte(sc.Mode),
					byte(ru), byte(ru>>8), sc.RATLevel, bit(sc.Active))
			}
		} else {
			b = append(b, 0)
		}

		b = append(b, byte(len(ls.Copies)))
		for _, c := range ls.Copies {
			u := int(c.Util)
			if u > r.satCap {
				u = r.satCap
			}
			b = append(b, byte(c.Core), byte(c.State), bit(c.Dirty),
				num(c.Version), byte(u), byte(u>>8))
		}
	}
	r.key = b
	return b
}

func bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}
