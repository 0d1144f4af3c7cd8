package video

import (
	"math"
	"testing"
)

func TestObjectsStayInVerticalBand(t *testing.T) {
	// The kinematics clamp object centres to y ∈ [0.15, 0.9]; over a long
	// run no labelled pixel should appear in the extreme top rows (objects
	// have bounded radii).
	g := mustGen(testConfig(21))
	for i := 0; i < 200; i++ {
		f := g.Next()
		w := g.cfg.W
		for x := 0; x < w; x++ {
			if f.Label[x] != Background && f.Label[x+w] != Background {
				// Allow rare single-row touches from large blobs, but two
				// full top rows of object pixels means containment failed.
				count := 0
				for xx := 0; xx < w; xx++ {
					if f.Label[xx] != Background {
						count++
					}
				}
				if count > w/2 {
					t.Fatalf("frame %d: top row majority-object; vertical containment broken", i)
				}
			}
		}
	}
}

func TestMovingCameraPansBackground(t *testing.T) {
	// With a moving camera the rendered background must change between
	// distant frames even if no objects are present.
	cfg := CategoryConfig(Category{Camera: Moving, Scenery: Street}, 22)
	cfg.MinObjects, cfg.MaxObjects = 0, 0
	cfg.ChurnPerSec = 0
	g := mustGen(cfg)
	f0 := g.Next()
	img0 := f0.Image.Clone()
	g.Skip(60)
	f1 := g.Next()
	diff := 0.0
	for i := range img0.Data {
		diff += math.Abs(float64(img0.Data[i] - f1.Image.Data[i]))
	}
	if diff == 0 {
		t.Fatal("moving camera produced a static background")
	}
}

func TestFixedCameraStaticBackground(t *testing.T) {
	cfg := CategoryConfig(Category{Fixed, People}, 23)
	cfg.MinObjects, cfg.MaxObjects = 0, 0
	cfg.ChurnPerSec = 0
	cfg.LightDrift = 0
	g := mustGen(cfg)
	f0 := g.Next()
	img0 := f0.Image.Clone()
	g.Skip(30)
	f1 := g.Next()
	for i := range img0.Data {
		if img0.Data[i] != f1.Image.Data[i] {
			t.Fatal("fixed camera with no objects and no light drift must render identical frames")
		}
	}
}

func TestLightDriftBounded(t *testing.T) {
	cfg := testConfig(24)
	cfg.LightDrift = 0.04
	g := mustGen(cfg)
	var lo, hi float32 = 2, -2
	for i := 0; i < 120; i++ {
		f := g.Next()
		m := f.Image.Data[0]
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if float64(hi-lo) > 0.2 {
		t.Fatalf("light drift swung %v, expected a gentle oscillation", hi-lo)
	}
}

func TestCullRespawnKeepsDensity(t *testing.T) {
	// A fast-panning camera constantly leaves objects behind; the cull +
	// respawn logic must keep the population within configured bounds.
	cfg := CategoryConfig(Category{Moving, Street}, 25)
	g := mustGen(cfg)
	for i := 0; i < 300; i++ {
		g.Next()
		n := len(g.objects)
		if n < cfg.MinObjects || n > cfg.MaxObjects {
			t.Fatalf("frame %d: %d objects outside [%d,%d]", i, n, cfg.MinObjects, cfg.MaxObjects)
		}
	}
}

func TestResampledMatchesSkippedGenerator(t *testing.T) {
	// Resampled{Stride: 4} must yield exactly the frames a manual
	// Next+Skip(3) loop yields.
	a := mustGen(testConfig(26))
	b := mustGen(testConfig(26))
	r := &Resampled{G: a, Stride: 4}
	for i := 0; i < 5; i++ {
		fa := r.Next()
		fb := b.Next()
		if fa.Index != fb.Index {
			t.Fatalf("index mismatch %d vs %d", fa.Index, fb.Index)
		}
		for j := range fa.Label {
			if fa.Label[j] != fb.Label[j] {
				t.Fatalf("frame %d labels differ", i)
			}
		}
		b.Skip(3)
	}
}
