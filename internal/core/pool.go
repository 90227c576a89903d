package core

import "fmt"

// ClassifierPool amortizes classifier allocation for the simulator's flat
// directory: a directory entry is created per resident L2 line, and with
// the map-based core every entry paid one to three heap allocations for its
// classifier (the dominant allocation source of a simulation). The pool
// carves classifiers out of fixed-size slabs — one bump allocation per
// slabSize classifiers — and recycles released classifiers through a free
// list after Reset, so steady-state directory churn allocates nothing.
//
// A pool is bound to one (cores, limitedK) geometry, matching one
// simulator; it is not safe for concurrent use.
type ClassifierPool struct {
	cores int
	k     int // <= 0 or >= cores selects the Complete classifier

	free []Classifier

	// Slab cursors for the two classifier shapes.
	completeSlab []complete
	limitedSlab  []limited
	stateSlab    []CoreState
	idSlab       []int16
}

// slabSize is the number of classifiers carved per slab allocation.
const slabSize = 256

// NewClassifierPool returns a pool producing the same classifiers as
// NewClassifier(cores, limitedK).
func NewClassifierPool(cores, limitedK int) *ClassifierPool {
	return &ClassifierPool{cores: cores, k: limitedK}
}

// Matches reports whether the pool's classifiers are interchangeable with
// NewClassifier(cores, limitedK)'s: same core count and same shape
// (limitedK values selecting the Complete classifier are equivalent).
// Simulator reuse keeps a pool across runs only when this holds.
func (p *ClassifierPool) Matches(cores, limitedK int) bool {
	if p.cores != cores {
		return false
	}
	pComplete := p.k <= 0 || p.k >= p.cores
	nComplete := limitedK <= 0 || limitedK >= cores
	if pComplete || nComplete {
		return pComplete == nComplete
	}
	return p.k == limitedK
}

// Get returns a pristine classifier, reusing a released one when available.
func (p *ClassifierPool) Get() Classifier {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	if p.k <= 0 || p.k >= p.cores {
		return p.newComplete()
	}
	return p.newLimited()
}

// Put releases a classifier back to the pool for reuse. The classifier must
// come from this pool (or share its geometry).
func (p *ClassifierPool) Put(c Classifier) {
	c.Reset()
	p.free = append(p.free, c)
}

// Clone returns a classifier from the pool carrying src's exact state:
// the tracked cores in their slot order, with their modes and counters
// (a Limited-k classifier's scratch entry is rewritten before every use,
// so it is not state). src must have the pool's geometry. The clone shares
// no storage with src, so the two evolve independently.
func (p *ClassifierPool) Clone(src Classifier) Classifier {
	dst := p.Get()
	switch s := src.(type) {
	case *complete:
		copy(dst.(*complete).states, s.states)
	case *limited:
		d := dst.(*limited)
		copy(d.ids, s.ids)
		copy(d.st, s.st)
	default:
		panic(fmt.Sprintf("core: Clone of foreign classifier %T", src))
	}
	return dst
}

func (p *ClassifierPool) newComplete() *complete {
	if len(p.completeSlab) == 0 {
		p.completeSlab = make([]complete, slabSize)
		p.stateSlab = make([]CoreState, slabSize*p.cores)
	}
	c := &p.completeSlab[0]
	p.completeSlab = p.completeSlab[1:]
	c.states = p.stateSlab[:p.cores:p.cores]
	p.stateSlab = p.stateSlab[p.cores:]
	for i := range c.states {
		c.states[i].Mode = ModePrivate
	}
	return c
}

func (p *ClassifierPool) newLimited() *limited {
	if len(p.limitedSlab) == 0 {
		p.limitedSlab = make([]limited, slabSize)
		p.stateSlab = make([]CoreState, slabSize*p.k)
		p.idSlab = make([]int16, slabSize*p.k)
	}
	l := &p.limitedSlab[0]
	p.limitedSlab = p.limitedSlab[1:]
	l.cores = p.cores
	l.st = p.stateSlab[:p.k:p.k]
	p.stateSlab = p.stateSlab[p.k:]
	l.ids = p.idSlab[:p.k:p.k]
	p.idSlab = p.idSlab[p.k:]
	for i := range l.ids {
		l.ids[i] = -1
	}
	return l
}
