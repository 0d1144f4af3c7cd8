package netsim

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
