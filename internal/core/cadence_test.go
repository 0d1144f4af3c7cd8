package core

import (
	"strconv"
	"strings"
	"testing"
)

// TestCadence runs Algorithm 4's decisions as event scripts. A script is
// space-separated events, each optionally repeated as event*n:
//
//	due, !due    assert whether this frame is a key frame
//	sent         a key frame went out
//	infer, wait  a frame was inferred; assert no wait, or a wait
//	apply:m:s    an update with metric m and stride scale s applied
//	settle       the update settled without a stride decision
func TestCadence(t *testing.T) {
	cases := []struct {
		name   string
		policy func(stride, metric float64) float64
		script string
		stride float64 // stride after the script
		trace  int     // stride decisions recorded
	}{
		{"first frame is due", nil, "due", 8, 0},
		{"wait at exactly MIN_STRIDE", nil, "due sent !due infer*7 wait due", 8, 0},
		{"no wait once the update applied", nil, "sent infer*2 apply:0.8:1 infer*5 infer due", 8, 1},
		{"duplicate settles without advancing the stride", nil, "sent infer*3 settle infer*5 due", 8, 0},
		{"link-lost update is never waited on", nil, "sent settle infer*20 apply:1:1", 16, 1},
		{"applied stride moves the next key frame", nil, "sent infer*7 wait apply:1:1 infer*7 !due infer due", 16, 1},
		{"policy result is clamped high", FixedStridePolicy(1000), "sent apply:0.5:1", 64, 1},
		{"policy result is clamped low", FixedStridePolicy(1), "sent apply:0.99:1", 8, 1},
		// A single clamp after the scale would give clamp(5×1.5) = 8.
		{"policy, clamp, ×scale, clamp", FixedStridePolicy(5), "sent apply:0.5:1.5", 12, 1},
		{"scaled stride is clamped", FixedStridePolicy(60), "sent apply:0.5:2", 64, 1},
		{"scale 0 is no scale", nil, "sent apply:0.8:0", 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCadence(DefaultConfig(), tc.policy)
			for i, tok := range strings.Fields(tc.script) {
				ev, n := tok, 1
				if j := strings.IndexByte(tok, '*'); j >= 0 {
					ev, n = tok[:j], atoi(t, tok[j+1:])
				}
				for ; n > 0; n-- {
					switch name, args, _ := strings.Cut(ev, ":"); name {
					case "due", "!due":
						if c.due() != (name == "due") {
							t.Fatalf("event %d (%s): due() = %v at steps %d, stride %v", i, tok, c.due(), c.steps, c.stride)
						}
					case "sent":
						c.sent()
					case "infer", "wait":
						if wait := c.inferred(); wait != (name == "wait") {
							t.Fatalf("event %d (%s): inferred() = %v at steps %d", i, tok, wait, c.steps)
						}
					case "apply":
						m, s, _ := strings.Cut(args, ":")
						c.applied(atof(t, m), atof(t, s))
					case "settle":
						c.settled()
					default:
						t.Fatalf("unknown event %q", tok)
					}
				}
			}
			if c.stride != tc.stride || len(c.trace) != tc.trace {
				t.Fatalf("stride %v with %d decisions, want %v with %d", c.stride, len(c.trace), tc.stride, tc.trace)
			}
		})
	}
}

func atoi(t *testing.T, s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func atof(t *testing.T, s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
