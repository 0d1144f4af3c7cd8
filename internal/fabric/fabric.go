package fabric

import "repro/internal/serve"

// Shard is one placement-addressable worker: a serve.Manager plus its
// stable index in the fabric. The index — not the Go object — is what the
// rendezvous hash scores, so placement is reproducible across processes.
type Shard struct {
	Index int
	*serve.Manager
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer, dependency-free and stable across platforms (placement must be
// reproducible in tests, scenarios and multi-process deployments).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// score is the rendezvous weight of session id on shard index.
func score(shard int, id uint64) uint64 {
	return mix64(mix64(uint64(shard)+0x9e3779b97f4a7c15) ^ id)
}

// Place returns the index (into shards) of the rendezvous winner for id
// among the given shard indices. Rendezvous hashing gives the property the
// handoff story depends on: when a shard leaves the set, only the sessions
// it owned re-home (each to its second-highest scorer); every other
// session's placement is untouched. Empty input returns -1.
func Place(id uint64, shards []int) int {
	best, bestScore := -1, uint64(0)
	for i, s := range shards {
		if sc := score(s, id); best < 0 || sc > bestScore || (sc == bestScore && s < shards[best]) {
			best, bestScore = i, sc
		}
	}
	return best
}

// ShardFor is Place over the full shard set [0, n): the home shard of a
// session in an undrained fabric of n shards. Scenario authors use it to
// construct deliberately skewed ID populations.
func ShardFor(id uint64, n int) int {
	best, bestScore := -1, uint64(0)
	for s := 0; s < n; s++ {
		if sc := score(s, id); best < 0 || sc > bestScore {
			best, bestScore = s, sc
		}
	}
	return best
}
