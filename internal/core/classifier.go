package core

// Classifier tracks per-core classification state for one cache line. Two
// implementations exist: the Complete classifier (state for every core,
// Figure 6) and the Limited-k classifier (state for k cores plus majority
// voting, Figure 7 and Section 3.4).
type Classifier interface {
	// Lookup returns mutable state for core, allocating or replacing a
	// tracking entry as the policy allows. The returned state may be
	// ephemeral when the classifier cannot track the core (Limited-k with
	// no replacement candidate): mutations are then discarded, exactly as
	// the hardware would drop them.
	Lookup(core int) *CoreState
	// ModeOf returns the core's current classification without allocating.
	ModeOf(core int) Mode
	// ForEachTracked visits every tracked core's state.
	ForEachTracked(fn func(core int, st *CoreState))
	// DeactivateRemoteExcept resets the remote utilization and clears the
	// activity bit of every tracked remote sharer other than except: a
	// write by another core restarts their locality measurement (Sections
	// 3.2 and 3.4). It is a dedicated method — not a ForEachTracked
	// closure — because it sits on the write miss path, where a captured
	// closure would be the hot loop's only heap allocation.
	DeactivateRemoteExcept(except int)
	// Reset returns the classifier to its pristine state (all cores
	// private, no tracked entries), allowing pooled reuse across
	// directory entries.
	Reset()
}

// NewClassifier builds a classifier: limitedK <= 0 selects the Complete
// classifier, otherwise the Limited-k classifier with k entries.
func NewClassifier(cores, limitedK int) Classifier {
	if limitedK <= 0 || limitedK >= cores {
		return newComplete(cores)
	}
	return newLimited(cores, limitedK)
}

// Lookup is Classifier.Lookup with the dynamic dispatch peeled for the two
// built-in implementations. It sits on the protocol's per-transaction hot
// path, where the classifier is always one of the package's own types; the
// type switch turns the interface call into direct (and, for Complete,
// inlined) code while staying correct for external implementations.
func Lookup(c Classifier, core int) *CoreState {
	switch c := c.(type) {
	case *limited:
		return c.Lookup(core)
	case *complete:
		return &c.states[core]
	default:
		return c.Lookup(core)
	}
}

// Tracked is one tracked core's classification state, as AppendTracked
// reports it.
type Tracked struct {
	Core int
	CoreState
}

// AppendTracked appends c's tracked cores, in the order ForEachTracked
// visits them, to dst and returns the extended slice. The built-in
// classifiers are walked directly, so no callback escapes and a caller
// reusing dst allocates nothing.
func AppendTracked(dst []Tracked, c Classifier) []Tracked {
	switch c := c.(type) {
	case *complete:
		for i := range c.states {
			dst = append(dst, Tracked{Core: i, CoreState: c.states[i]})
		}
	case *limited:
		for i, id := range c.ids {
			if id >= 0 {
				dst = append(dst, Tracked{Core: int(id), CoreState: c.st[i]})
			}
		}
	default:
		// A separate variable keeps the closure's capture (and its heap
		// cell) off the built-in paths.
		out := dst
		c.ForEachTracked(func(id int, st *CoreState) {
			out = append(out, Tracked{Core: id, CoreState: *st})
		})
		return out
	}
	return dst
}

// complete tracks every core (Figure 6).
type complete struct {
	states []CoreState
}

func newComplete(cores int) *complete {
	c := &complete{states: make([]CoreState, cores)}
	// All cores start as private sharers (Figure 4, "Initial").
	for i := range c.states {
		c.states[i].Mode = ModePrivate
	}
	return c
}

func (c *complete) Lookup(core int) *CoreState { return &c.states[core] }
func (c *complete) ModeOf(core int) Mode       { return c.states[core].Mode }

func (c *complete) ForEachTracked(fn func(int, *CoreState)) {
	for i := range c.states {
		fn(i, &c.states[i])
	}
}

func (c *complete) DeactivateRemoteExcept(except int) {
	for i := range c.states {
		if i != except && c.states[i].Mode == ModeRemote {
			c.states[i].RemoteUtil = 0
			c.states[i].Active = false
		}
	}
}

func (c *complete) Reset() {
	for i := range c.states {
		c.states[i] = CoreState{Mode: ModePrivate}
	}
}

// limited tracks k cores; untracked cores are classified by majority vote
// of the tracked modes (Section 3.4).
type limited struct {
	cores int
	ids   []int16 // -1 marks a free entry
	st    []CoreState
	// scratch returned for untracked cores with no replacement candidate;
	// mutations are dropped, mirroring hardware without a tracking entry.
	scratch CoreState
}

func newLimited(cores, k int) *limited {
	l := &limited{cores: cores, ids: make([]int16, k), st: make([]CoreState, k)}
	for i := range l.ids {
		l.ids[i] = -1
	}
	return l
}

// majority returns the majority vote of tracked modes. Ties and an empty
// list fall back to private, the protocol's initial mode.
func (l *limited) majority() Mode {
	private, remote := 0, 0
	for i, id := range l.ids {
		if id < 0 {
			continue
		}
		if l.st[i].Mode == ModePrivate {
			private++
		} else {
			remote++
		}
	}
	if remote > private {
		return ModeRemote
	}
	return ModePrivate
}

func (l *limited) Lookup(core int) *CoreState {
	free := -1
	for i, id := range l.ids {
		if id == int16(core) {
			return &l.st[i]
		}
		if id < 0 && free < 0 {
			free = i
		}
	}
	if free >= 0 {
		// A free entry starts the core in the protocol's initial private
		// mode (Section 3.2 initialization).
		l.ids[free] = int16(core)
		l.st[free] = CoreState{Mode: ModePrivate}
		return &l.st[free]
	}
	// Look for a replacement candidate: an inactive sharer (Section 3.4).
	for i := range l.ids {
		if !l.st[i].Active {
			// The new core starts in the most probable mode: the majority
			// vote of the tracked cores.
			mode := l.majority()
			l.ids[i] = int16(core)
			l.st[i] = CoreState{Mode: mode}
			return &l.st[i]
		}
	}
	// No candidate: the list is unchanged and the requester operates with
	// the majority mode; its counters are not retained.
	l.scratch = CoreState{Mode: l.majority()}
	return &l.scratch
}

func (l *limited) ModeOf(core int) Mode {
	for i, id := range l.ids {
		if id == int16(core) {
			return l.st[i].Mode
		}
	}
	return l.majority()
}

func (l *limited) ForEachTracked(fn func(int, *CoreState)) {
	for i, id := range l.ids {
		if id >= 0 {
			fn(int(id), &l.st[i])
		}
	}
}

func (l *limited) DeactivateRemoteExcept(except int) {
	for i, id := range l.ids {
		if id >= 0 && int(id) != except && l.st[i].Mode == ModeRemote {
			l.st[i].RemoteUtil = 0
			l.st[i].Active = false
		}
	}
}

func (l *limited) Reset() {
	for i := range l.ids {
		l.ids[i] = -1
		l.st[i] = CoreState{}
	}
	l.scratch = CoreState{}
}

// StorageBits returns the per-directory-entry classifier storage in bits for
// a system with `cores` cores, reproducing the arithmetic of Section 3.6:
// per tracked core 1 mode bit, a remote-utilization counter sized by RATMax,
// a RAT-level field sized by NRATLevels, and (for Limited-k only) a core ID.
func StorageBits(cores, limitedK int, p Params) int {
	// A counter reaching RATMax needs bitsFor(RATMax-1) bits (the paper
	// stores 1..16 in 4 bits).
	utilBits := bitsFor(p.RATMax - 1)
	ratBits := bitsFor(p.NRATLevels - 1)
	if p.NRATLevels <= 1 {
		ratBits = 0
	}
	idBits := bitsFor(cores - 1)
	perCore := 1 + utilBits + ratBits
	if limitedK <= 0 || limitedK >= cores {
		return cores * perCore
	}
	return limitedK * (perCore + idBits)
}

func bitsFor(maxValue int) int {
	if maxValue <= 0 {
		return 0
	}
	bits := 0
	for v := maxValue; v > 0; v >>= 1 {
		bits++
	}
	return bits
}
