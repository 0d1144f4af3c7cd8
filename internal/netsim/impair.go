package netsim

import "time"

// Impairment adds jitter/reorder behaviour on top of a LossModel: with
// probability ReorderProb a packet is deferred 1–maxDefer positions behind
// its in-order slot before hitting the wire. Under a paced (throttled) link
// the positional displacement manifests as real arrival-time jitter. Like
// the loss models, every draw is hashed from (Seed, seq), so the reorder
// schedule is bitwise-deterministic per seed.
type Impairment struct {
	Seed        int64
	ReorderProb float64
}

// maxDefer bounds how far behind its slot a reordered packet can land.
const maxDefer = 3

// Defer returns how many positions behind its in-order slot packet seq is
// emitted (0 = in place, 1..maxDefer = deferred). Pure in (Seed, seq).
func (im *Impairment) Defer(seq uint64) int {
	if im == nil || im.ReorderProb <= 0 {
		return 0
	}
	if unit(im.Seed, seq, saltReorder) >= im.ReorderProb {
		return 0
	}
	return 1 + int(unit(im.Seed, seq, saltDefer)*maxDefer)
}

// Fate is the combined verdict for one packet: whether the loss model eats
// it and, if it survives, how far the impairment stage defers it.
type Fate struct {
	Lost  bool
	Defer int
}

// Schedule materialises the fates of packets 1..n at link age elapsed —
// the deterministic "packet schedule" artifact: two calls with identically
// seeded models yield bitwise-identical slices regardless of GOMAXPROCS,
// -race, or wall-clock timing. Either model may be nil.
func Schedule(loss LossModel, im *Impairment, n int, elapsed time.Duration) []Fate {
	fates := make([]Fate, n)
	for i := range fates {
		seq := uint64(i + 1)
		if loss != nil {
			fates[i].Lost = loss.Drop(seq, elapsed)
		}
		if !fates[i].Lost {
			fates[i].Defer = im.Defer(seq)
		}
	}
	return fates
}
