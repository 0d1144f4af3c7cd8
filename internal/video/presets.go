package video

import "fmt"

// Category identifies one of the seven camera/scenery rows of the paper's
// Tables 3, 5, 6 and 7.
type Category struct {
	Camera  Camera
	Scenery Scenery
}

// String implements fmt.Stringer ("fixed/animals" etc.).
func (c Category) String() string { return fmt.Sprintf("%s/%s", c.Camera, c.Scenery) }

// Categories lists the seven LVS rows in the paper's table order.
var Categories = []Category{
	{Fixed, Animals},
	{Fixed, People},
	{Fixed, Street},
	{Moving, Animals},
	{Moving, People},
	{Moving, Street},
	{Egocentric, People},
}

// DefaultW and DefaultH are the reproduction's frame size. The paper uses
// 1280×720; we render 96×64 so pure-Go online distillation is tractable and
// scale reported data sizes back to HD (see internal/netsim.HDScale).
const (
	DefaultW = 96
	DefaultH = 64
)

// CategoryConfig returns the generator configuration for an LVS category.
// Volatility knobs are set so the relative key-frame-ratio ordering of
// Table 5 emerges: fixed/people calmest, moving/street most volatile.
func CategoryConfig(cat Category, seed int64) Config {
	cfg := Config{
		W: DefaultW, H: DefaultH,
		FPS:     30,
		Camera:  cat.Camera,
		Scenery: cat.Scenery,
		Seed:    seed,
	}
	// Scenery sets the object population and base dynamics.
	switch cat.Scenery {
	case Animals:
		cfg.MinObjects, cfg.MaxObjects = 3, 6
		cfg.ObjSpeed = 0.055
		cfg.ChurnPerSec = 0.10
		cfg.BGDetail = 0.5
	case People:
		cfg.MinObjects, cfg.MaxObjects = 2, 5
		cfg.ObjSpeed = 0.035
		cfg.ChurnPerSec = 0.03
		cfg.BGDetail = 0.3
	case Street:
		cfg.MinObjects, cfg.MaxObjects = 4, 9
		cfg.ObjSpeed = 0.14
		cfg.ChurnPerSec = 0.45
		cfg.BGDetail = 0.8
	}
	// Camera adds motion-induced volatility.
	switch cat.Camera {
	case Fixed:
		// Fixed cameras see raw scene churn; animals wander in/out more
		// than people (Table 5: fixed/animals 4.7% vs fixed/people 2.0%).
		if cat.Scenery == Animals {
			cfg.ChurnPerSec += 0.12
			cfg.ObjSpeed *= 1.3
		}
	case Moving:
		cfg.CamSpeed = 0.02
		switch cat.Scenery {
		case Animals:
			// A camera tracking wildlife keeps it in frame, reducing
			// effective churn (moving/animals < fixed/animals, Table 5).
			cfg.ChurnPerSec *= 0.5
		case People:
			// Hand-held following of people adds motion volatility
			// (moving/people > fixed/people, Table 5).
			cfg.ChurnPerSec *= 1.6
			cfg.ObjSpeed *= 1.3
		case Street:
			cfg.CamSpeed = 0.05
			cfg.ChurnPerSec = 0.6 // traffic streaming past
		}
	case Egocentric:
		cfg.CamSpeed = 0.03
		cfg.CamShake = 0.05
		cfg.ChurnPerSec *= 1.6
	}
	cfg.LightDrift = 0.04
	return cfg
}

// NamedVideo returns configurations for the five named LVS streams of
// Figure 4, ordered from least key frames (softball, 1.72% in the paper) to
// most (southbeach, 12.4%).
func NamedVideo(name string, seed int64) (Config, error) {
	switch name {
	case "softball":
		// Fixed camera on a calm field: calmest stream in the paper.
		cfg := CategoryConfig(Category{Fixed, People}, seed)
		cfg.ChurnPerSec = 0.02
		cfg.ObjSpeed = 0.025
		cfg.MinObjects, cfg.MaxObjects = 2, 3
		return cfg, nil
	case "figure_skating":
		cfg := CategoryConfig(Category{Moving, People}, seed)
		cfg.ObjSpeed = 0.06
		cfg.MinObjects, cfg.MaxObjects = 1, 3
		return cfg, nil
	case "ice_hockey":
		cfg := CategoryConfig(Category{Moving, People}, seed)
		cfg.ObjSpeed = 0.10
		cfg.ChurnPerSec = 0.18
		cfg.MinObjects, cfg.MaxObjects = 4, 7
		return cfg, nil
	case "drone":
		cfg := CategoryConfig(Category{Moving, Street}, seed)
		cfg.CamSpeed = 0.06
		cfg.ChurnPerSec = 0.35
		return cfg, nil
	case "southbeach":
		// Street CCTV: the paper's most volatile stream.
		cfg := CategoryConfig(Category{Fixed, Street}, seed)
		cfg.ChurnPerSec = 0.8
		cfg.ObjSpeed = 0.16
		cfg.MinObjects, cfg.MaxObjects = 5, 10
		return cfg, nil
	}
	return Config{}, fmt.Errorf("video: unknown named video %q", name)
}

// NamedVideos lists the Figure 4 stream names in paper order.
var NamedVideos = []string{"softball", "figure_skating", "ice_hockey", "drone", "southbeach"}

// Resampled wraps a generator so it yields every strideth frame, simulating
// the 7 FPS re-sampling of §6.5 (30 FPS / 4 ≈ 7 FPS).
type Resampled struct {
	G      *Generator
	Stride int
	n      int
}

// Next returns the next re-sampled frame.
func (r *Resampled) Next() Frame {
	if r.n > 0 || r.Stride > 1 {
		if r.n > 0 {
			r.G.Skip(r.Stride - 1)
		}
	}
	r.n++
	return r.G.Next()
}

// Source is any ordered frame producer (Generator, Resampled, or recorded
// traces in tests).
type Source interface {
	Next() Frame
}

// replaySource replays recorded frames.
type replaySource struct {
	frames []Frame
	i      int
}

// NewReplay returns a Source that replays the given frames in order and
// panics when exhausted; tests use it to feed identical frames to several
// systems.
func NewReplay(frames []Frame) Source { return &replaySource{frames: frames} }

func (r *replaySource) Next() Frame {
	if r.i >= len(r.frames) {
		panic("video: replay source exhausted")
	}
	f := r.frames[r.i]
	r.i++
	return f
}
