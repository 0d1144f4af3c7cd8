// Package video procedurally generates temporally coherent synthetic video
// with per-pixel ground-truth semantic labels. It stands in for the LVS
// dataset (720p, 25–30 FPS, 8 moving object classes over
// fixed/moving/egocentric cameras and animals/people/street sceneries) that
// the paper evaluates on. Scene volatility knobs (object speed, churn,
// camera shake) are tuned per category so the relative difficulty ordering
// of the paper's Table 5 is preserved.
package video

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Class indices. 0 is background; 1..8 follow the LVS label set.
const (
	Background = iota
	Person
	Bicycle
	Automobile
	Bird
	Dog
	Horse
	Elephant
	Giraffe
	NumClasses // 9
)

// Camera is the LVS camera taxonomy.
type Camera int

// Camera kinds.
const (
	Fixed Camera = iota
	Moving
	Egocentric
)

// String implements fmt.Stringer.
func (c Camera) String() string {
	switch c {
	case Fixed:
		return "fixed"
	case Moving:
		return "moving"
	case Egocentric:
		return "egocentric"
	}
	return fmt.Sprintf("camera(%d)", int(c))
}

// Scenery is the LVS main-scenery taxonomy.
type Scenery int

// Scenery kinds.
const (
	Animals Scenery = iota
	People
	Street
)

// String implements fmt.Stringer.
func (s Scenery) String() string {
	switch s {
	case Animals:
		return "animals"
	case People:
		return "people"
	case Street:
		return "street"
	}
	return fmt.Sprintf("scenery(%d)", int(s))
}

// Frame is one rendered video frame: an RGB image in [0,1] (CHW) and the
// ground-truth class mask (len H*W).
type Frame struct {
	Index int
	Image *tensor.Tensor
	Label []int32
}

// Shape is an object silhouette kind.
type Shape int

// Shape kinds used by the renderer.
const (
	Ellipse Shape = iota
	Box
	Blob // ellipse with a sinusoidal boundary wobble
)

// object is one moving foreground entity.
type object struct {
	class      int32
	shape      Shape
	x, y       float64 // centre in world units ([0,1] spans the frame)
	vx, vy     float64
	rx, ry     float64 // radii in world units
	color      [3]float32
	texFreq    float64 // texture stripe frequency
	texPhase   float64
	wobble     float64 // blob boundary wobble amplitude
	wobbleFreq float64
	phase      float64 // gait/animation phase
	depth      float64 // draw order, higher = nearer (drawn last)
}

// Config controls generation. Construct via CategoryConfig or NamedVideo,
// or fill manually for custom scenarios.
type Config struct {
	W, H    int     // frame size in pixels
	FPS     float64 // source frame rate
	Camera  Camera
	Scenery Scenery
	Seed    int64

	// DomainSeed selects the video's appearance domain (colour mixing,
	// channel gains, texture scale). Zero derives it from Seed. Distinct
	// domains are what keep the tiny pre-trained student from generalising
	// across videos (the paper's "Wild" row, mIoU ≈ 17%), while a single
	// domain is internally consistent so per-stream distillation works —
	// the synthetic analogue of real-video appearance diversity.
	DomainSeed int64

	// Volatility knobs.
	MinObjects, MaxObjects int
	ObjSpeed               float64 // mean object speed, world units/s
	ChurnPerSec            float64 // expected object enter/leave events per second
	CamSpeed               float64 // camera pan speed (Moving)
	CamShake               float64 // per-frame jitter amplitude (Egocentric)
	LightDrift             float64 // slow global illumination drift amplitude
	BGDetail               float64 // background texture contrast
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.W <= 0 || c.H <= 0 {
		return fmt.Errorf("video: non-positive frame size %dx%d", c.W, c.H)
	}
	if c.W%8 != 0 || c.H%8 != 0 {
		return fmt.Errorf("video: frame size %dx%d must be divisible by 8 for the student net", c.W, c.H)
	}
	if c.FPS <= 0 {
		return fmt.Errorf("video: non-positive FPS %v", c.FPS)
	}
	if c.MinObjects < 0 || c.MaxObjects < c.MinObjects {
		return fmt.Errorf("video: bad object count range [%d,%d]", c.MinObjects, c.MaxObjects)
	}
	return nil
}

// domain is the per-video appearance transform: a colour mixing matrix with
// per-channel bias applied to every rendered pixel, plus a texture
// frequency scale. See Config.DomainSeed.
type domain struct {
	m        [9]float32 // row-major 3×3 colour mixing matrix
	bias     [3]float32
	texScale float64
}

// newDomain derives a random but well-conditioned appearance domain.
func newDomain(seed int64) domain {
	rng := rand.New(rand.NewSource(seed))
	var d domain
	// Start from identity, blend towards a random channel permutation and
	// add cross-talk; keep rows roughly normalised so brightness survives.
	perm := rng.Perm(3)
	blend := 0.35 + 0.55*rng.Float64() // how far towards the permutation
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			v := float32(0)
			if r == c {
				v += float32(1 - blend)
			}
			if perm[r] == c {
				v += float32(blend)
			}
			v += float32((rng.Float64()*2 - 1) * 0.25) // cross-talk
			d.m[r*3+c] = v
		}
		gain := float32(0.6 + 0.8*rng.Float64())
		for c := 0; c < 3; c++ {
			d.m[r*3+c] *= gain
		}
		d.bias[r] = float32((rng.Float64()*2 - 1) * 0.2)
	}
	d.texScale = 0.5 + 1.2*rng.Float64()
	return d
}

// apply transforms one RGB pixel in place.
func (d *domain) apply(r, g, b float32) (float32, float32, float32) {
	nr := clamp01(d.m[0]*r + d.m[1]*g + d.m[2]*b + d.bias[0])
	ng := clamp01(d.m[3]*r + d.m[4]*g + d.m[5]*b + d.bias[1])
	nb := clamp01(d.m[6]*r + d.m[7]*g + d.m[8]*b + d.bias[2])
	return nr, ng, nb
}

// Generator produces frames one at a time in strict temporal order, exactly
// as ShadowTutor's client consumes them (§4.1.1: frames are traversed
// "in strict temporal order without look-back").
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	dom     domain
	objects []object
	frameNo int
	camX    float64
	camY    float64
	light   float64
}

// NewGenerator validates cfg and returns a deterministic generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds := cfg.DomainSeed
	if ds == 0 {
		ds = cfg.Seed*2654435761 + 97
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), dom: newDomain(ds)}
	n := cfg.MinObjects
	if cfg.MaxObjects > cfg.MinObjects {
		n += g.rng.Intn(cfg.MaxObjects - cfg.MinObjects + 1)
	}
	for i := 0; i < n; i++ {
		g.objects = append(g.objects, g.spawn(true))
	}
	return g, nil
}

// sceneryClasses returns the class palette for the scenery.
func sceneryClasses(s Scenery) []int32 {
	switch s {
	case Animals:
		return []int32{Bird, Dog, Horse, Elephant, Giraffe}
	case People:
		return []int32{Person, Person, Person, Dog, Bicycle}
	case Street:
		return []int32{Automobile, Automobile, Person, Bicycle, Dog}
	}
	return []int32{Person}
}

// classAppearance returns nominal radii, colour and shape for a class.
func classAppearance(class int32, rng *rand.Rand) (rx, ry float64, col [3]float32, sh Shape) {
	jitter := func(base, amp float64) float64 { return base * (1 + amp*(rng.Float64()*2-1)) }
	switch class {
	case Person:
		rx, ry = jitter(0.045, 0.3), jitter(0.12, 0.3)
		col = [3]float32{0.8, 0.5, 0.4}
		sh = Blob
	case Bicycle:
		rx, ry = jitter(0.09, 0.3), jitter(0.06, 0.3)
		col = [3]float32{0.3, 0.3, 0.8}
		sh = Box
	case Automobile:
		rx, ry = jitter(0.14, 0.3), jitter(0.07, 0.3)
		col = [3]float32{0.75, 0.1, 0.15}
		sh = Box
	case Bird:
		rx, ry = jitter(0.035, 0.3), jitter(0.025, 0.3)
		col = [3]float32{0.2, 0.2, 0.25}
		sh = Ellipse
	case Dog:
		rx, ry = jitter(0.07, 0.3), jitter(0.05, 0.3)
		col = [3]float32{0.55, 0.4, 0.2}
		sh = Blob
	case Horse:
		rx, ry = jitter(0.11, 0.3), jitter(0.09, 0.3)
		col = [3]float32{0.45, 0.25, 0.1}
		sh = Blob
	case Elephant:
		rx, ry = jitter(0.16, 0.25), jitter(0.13, 0.25)
		col = [3]float32{0.5, 0.5, 0.55}
		sh = Blob
	case Giraffe:
		rx, ry = jitter(0.08, 0.3), jitter(0.17, 0.25)
		col = [3]float32{0.85, 0.7, 0.3}
		sh = Blob
	default:
		rx, ry = 0.08, 0.08
		col = [3]float32{0.5, 0.5, 0.5}
		sh = Ellipse
	}
	// Per-instance colour jitter keeps instances distinguishable while the
	// class identity stays learnable.
	for i := range col {
		col[i] += float32((rng.Float64()*2 - 1) * 0.08)
		col[i] = clamp01(col[i])
	}
	return
}

// spawn creates a new object. anywhere=true places it inside the frame;
// otherwise it enters from an edge moving inward.
func (g *Generator) spawn(anywhere bool) object {
	classes := sceneryClasses(g.cfg.Scenery)
	class := classes[g.rng.Intn(len(classes))]
	rx, ry, col, sh := classAppearance(class, g.rng)
	speed := g.cfg.ObjSpeed * (0.5 + g.rng.Float64())
	dir := g.rng.Float64() * 2 * math.Pi
	o := object{
		class: class, shape: sh,
		rx: rx, ry: ry, color: col,
		vx: speed * math.Cos(dir), vy: speed * math.Sin(dir) * 0.4,
		texFreq:    6 + g.rng.Float64()*10,
		texPhase:   g.rng.Float64() * 2 * math.Pi,
		wobble:     0.1 + g.rng.Float64()*0.15,
		wobbleFreq: 3 + g.rng.Float64()*4,
		phase:      g.rng.Float64() * 2 * math.Pi,
		depth:      g.rng.Float64(),
	}
	if anywhere {
		o.x = g.rng.Float64()
		o.y = 0.25 + g.rng.Float64()*0.6
	} else {
		// Enter from left or right edge, moving inward.
		if g.rng.Intn(2) == 0 {
			o.x = -o.rx
			o.vx = math.Abs(o.vx) + 0.2*g.cfg.ObjSpeed
		} else {
			o.x = 1 + o.rx
			o.vx = -math.Abs(o.vx) - 0.2*g.cfg.ObjSpeed
		}
		o.y = 0.3 + g.rng.Float64()*0.5
	}
	return o
}

func clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
