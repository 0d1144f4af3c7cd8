package video

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig(seed int64) Config {
	return CategoryConfig(Category{Camera: Fixed, Scenery: People}, seed)
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, err := NewGenerator(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(testConfig(3))
	for i := 0; i < 5; i++ {
		f1, f2 := g1.Next(), g2.Next()
		for j := range f1.Image.Data {
			if f1.Image.Data[j] != f2.Image.Data[j] {
				t.Fatalf("frame %d pixel %d differs", i, j)
			}
		}
		for j := range f1.Label {
			if f1.Label[j] != f2.Label[j] {
				t.Fatalf("frame %d label %d differs", i, j)
			}
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	g1, _ := NewGenerator(testConfig(1))
	g2, _ := NewGenerator(testConfig(2))
	f1, f2 := g1.Next(), g2.Next()
	same := true
	for j := range f1.Image.Data {
		if f1.Image.Data[j] != f2.Image.Data[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical frames")
	}
}

func TestFrameShapesAndRanges(t *testing.T) {
	g, _ := NewGenerator(testConfig(4))
	f := g.Next()
	if f.Image.Dim(0) != 3 || f.Image.Dim(1) != DefaultH || f.Image.Dim(2) != DefaultW {
		t.Fatalf("image shape %v", f.Image.Shape())
	}
	if len(f.Label) != DefaultH*DefaultW {
		t.Fatalf("label len %d", len(f.Label))
	}
	for _, v := range f.Image.Data {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v outside [0,1]", v)
		}
	}
	for _, c := range f.Label {
		if c < 0 || c >= NumClasses {
			t.Fatalf("label class %d out of range", c)
		}
	}
}

func TestFrameIndicesIncrease(t *testing.T) {
	g, _ := NewGenerator(testConfig(5))
	for i := 0; i < 4; i++ {
		if f := g.Next(); f.Index != i {
			t.Fatalf("frame index %d, want %d", f.Index, i)
		}
	}
}

func TestSkipAdvancesState(t *testing.T) {
	gA, _ := NewGenerator(testConfig(6))
	gB, _ := NewGenerator(testConfig(6))
	for i := 0; i < 4; i++ {
		gA.Next()
	}
	gB.Skip(4)
	fa, fb := gA.Next(), gB.Next()
	if fa.Index != fb.Index {
		t.Fatalf("Skip misaligned: %d vs %d", fa.Index, fb.Index)
	}
	for j := range fa.Label {
		if fa.Label[j] != fb.Label[j] {
			t.Fatal("Skip must advance dynamics identically to Next")
		}
	}
}

func TestTemporalCoherence(t *testing.T) {
	// Adjacent frames must share the vast majority of labels; distant
	// frames must differ more. This is the property ShadowTutor exploits.
	g, _ := NewGenerator(testConfig(7))
	f0 := g.Next()
	f1 := g.Next()
	g.Skip(120)
	fFar := g.Next()
	near := labelDiff(f0.Label, f1.Label)
	far := labelDiff(f0.Label, fFar.Label)
	if near > 0.08 {
		t.Fatalf("adjacent frames differ by %.1f%% of pixels", near*100)
	}
	if far <= near {
		t.Fatalf("distant frames (%f) must differ more than adjacent (%f)", far, near)
	}
}

func TestStreetMoreVolatileThanPeople(t *testing.T) {
	churn := func(cat Category) float64 {
		g, _ := NewGenerator(CategoryConfig(cat, 8))
		prev := g.Next()
		var total float64
		const n = 60
		for i := 0; i < n; i++ {
			cur := g.Next()
			total += labelDiff(prev.Label, cur.Label)
			prev = cur
		}
		return total / n
	}
	calm := churn(Category{Fixed, People})
	busy := churn(Category{Moving, Street})
	if busy <= calm {
		t.Fatalf("moving/street churn (%f) must exceed fixed/people (%f)", busy, calm)
	}
}

func TestObjectsPresent(t *testing.T) {
	g, _ := NewGenerator(testConfig(9))
	found := false
	for i := 0; i < 30 && !found; i++ {
		f := g.Next()
		for _, c := range f.Label {
			if c != Background {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no foreground objects in 30 frames")
	}
}

func TestSceneryClassPalettes(t *testing.T) {
	seen := map[int32]bool{}
	cfg := CategoryConfig(Category{Fixed, Animals}, 10)
	g, _ := NewGenerator(cfg)
	for i := 0; i < 90; i++ {
		f := g.Next()
		for _, c := range f.Label {
			seen[c] = true
		}
	}
	for c := range seen {
		if c == Background {
			continue
		}
		ok := false
		for _, want := range sceneryClasses(Animals) {
			if c == want {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("class %d outside the animals palette", c)
		}
	}
}

func TestDomainsChangeAppearanceNotLabels(t *testing.T) {
	cfgA := testConfig(11)
	cfgB := testConfig(11)
	cfgB.DomainSeed = 999
	gA, _ := NewGenerator(cfgA)
	gB, _ := NewGenerator(cfgB)
	fA, fB := gA.Next(), gB.Next()
	for j := range fA.Label {
		if fA.Label[j] != fB.Label[j] {
			t.Fatal("domain shift must not alter ground truth")
		}
	}
	same := true
	for j := range fA.Image.Data {
		if fA.Image.Data[j] != fB.Image.Data[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct domains must alter appearance")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{W: 0, H: 64, FPS: 30},
		{W: 96, H: 63, FPS: 30},                               // not divisible by 8
		{W: 96, H: 64, FPS: 0},                                // zero FPS
		{W: 96, H: 64, FPS: 30, MinObjects: 3, MaxObjects: 1}, // inverted range
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestCategoryString(t *testing.T) {
	c := Category{Camera: Egocentric, Scenery: People}
	if c.String() != "egocentric/people" {
		t.Fatalf("Category.String = %q", c)
	}
	if Fixed.String() != "fixed" || Street.String() != "street" {
		t.Fatal("enum String methods wrong")
	}
}

func TestNamedVideosResolve(t *testing.T) {
	for _, name := range NamedVideos {
		cfg, err := NamedVideo(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s config invalid: %v", name, err)
		}
	}
	if _, err := NamedVideo("nope", 1); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestNamedVideoVolatilityOrdering(t *testing.T) {
	churnOf := func(name string) float64 {
		cfg, _ := NamedVideo(name, 12)
		g, _ := NewGenerator(cfg)
		prev := g.Next()
		var total float64
		const n = 90
		for i := 0; i < n; i++ {
			cur := g.Next()
			total += labelDiff(prev.Label, cur.Label)
			prev = cur
		}
		return total / n
	}
	if churnOf("softball") >= churnOf("southbeach") {
		t.Fatal("softball must be calmer than southbeach (Figure 4 ordering)")
	}
}

func TestResampledStridesFrames(t *testing.T) {
	gA, _ := NewGenerator(testConfig(13))
	r := &Resampled{G: gA, Stride: 4}
	f0 := r.Next()
	f1 := r.Next()
	if f1.Index-f0.Index != 4 {
		t.Fatalf("resampled stride = %d, want 4", f1.Index-f0.Index)
	}
}

func TestResampledLessCoherent(t *testing.T) {
	native, _ := NewGenerator(testConfig(14))
	res := &Resampled{G: mustGen(testConfig(14)), Stride: 4}
	nf0, nf1 := native.Next(), native.Next()
	rf0, rf1 := res.Next(), res.Next()
	if labelDiff(rf0.Label, rf1.Label) < labelDiff(nf0.Label, nf1.Label) {
		t.Fatal("7 FPS resampling must reduce temporal coherence")
	}
}

// Property: every category config validates and generates in-range labels.
func TestQuickAllCategoriesGenerate(t *testing.T) {
	f := func(seed int64, catIdx uint8) bool {
		cat := Categories[int(catIdx)%len(Categories)]
		g, err := NewGenerator(CategoryConfig(cat, seed))
		if err != nil {
			return false
		}
		fr := g.Next()
		for _, c := range fr.Label {
			if c < 0 || c >= NumClasses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func labelDiff(a, b []int32) float64 {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

func mustGen(cfg Config) *Generator {
	g, err := NewGenerator(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

func TestReplaySourceOrderAndExhaustion(t *testing.T) {
	g := mustGen(CategoryConfig(Category{Camera: Fixed, Scenery: Animals}, 9))
	fs := []Frame{g.Next(), g.Next(), g.Next()}
	src := NewReplay(fs)
	for i := range fs {
		if got := src.Next(); got.Index != fs[i].Index {
			t.Fatalf("replay out of order at %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted replay must panic")
		}
	}()
	src.Next()
}
