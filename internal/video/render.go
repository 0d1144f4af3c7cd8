package video

import (
	"math"
	"sort"

	"repro/internal/tensor"
)

// Next advances the simulation one frame and renders it. The returned
// Frame's buffers are freshly allocated (callers may retain them); use
// NextInto with reuse for the hot path.
func (g *Generator) Next() Frame {
	img := tensor.New(3, g.cfg.H, g.cfg.W)
	label := make([]int32, g.cfg.H*g.cfg.W)
	return g.nextInto(img, label)
}

// Skip advances the simulation by n frames without rendering, used for FPS
// re-sampling (§6.5 re-samples every video to 7 FPS).
func (g *Generator) Skip(n int) {
	for i := 0; i < n; i++ {
		g.step()
		g.frameNo++
	}
}

func (g *Generator) nextInto(img *tensor.Tensor, label []int32) Frame {
	g.step()
	g.render(img, label)
	f := Frame{Index: g.frameNo, Image: img, Label: label}
	g.frameNo++
	return f
}

// step advances object and camera state by one frame interval.
func (g *Generator) step() {
	dt := 1 / g.cfg.FPS
	// Camera trajectory.
	switch g.cfg.Camera {
	case Fixed:
		// no motion
	case Moving:
		g.camX += g.cfg.CamSpeed * dt
		g.camY += 0.15 * g.cfg.CamSpeed * dt * math.Sin(float64(g.frameNo)*0.02)
	case Egocentric:
		g.camX += g.cfg.CamSpeed*dt + g.cfg.CamShake*(g.rng.Float64()*2-1)*dt
		g.camY += g.cfg.CamShake * (g.rng.Float64()*2 - 1) * dt
		// head bob
		g.camY += 0.004 * math.Sin(float64(g.frameNo)*0.35) * g.cfg.CamShake * 10 * dt
	}
	// Illumination drift.
	g.light = g.cfg.LightDrift * math.Sin(float64(g.frameNo)*2*math.Pi/(12*g.cfg.FPS))

	// Object kinematics.
	for i := range g.objects {
		o := &g.objects[i]
		o.x += o.vx * dt
		o.y += o.vy * dt
		o.phase += dt * 2 * math.Pi * 0.8
		// Gentle vertical containment: objects wander but stay in band.
		if o.y < 0.15 {
			o.y = 0.15
			o.vy = math.Abs(o.vy)
		}
		if o.y > 0.9 {
			o.y = 0.9
			o.vy = -math.Abs(o.vy)
		}
		// Occasional direction change (animal/person behaviour).
		if g.rng.Float64() < 0.3*dt {
			dir := g.rng.Float64() * 2 * math.Pi
			sp := math.Hypot(o.vx, o.vy)
			o.vx = sp * math.Cos(dir)
			o.vy = sp * math.Sin(dir) * 0.4
		}
	}
	// Churn: Poisson enter/leave events.
	pChurn := g.cfg.ChurnPerSec * dt
	if g.rng.Float64() < pChurn {
		if len(g.objects) < g.cfg.MaxObjects {
			g.objects = append(g.objects, g.spawn(false))
		}
	}
	if g.rng.Float64() < pChurn {
		if len(g.objects) > g.cfg.MinObjects {
			i := g.rng.Intn(len(g.objects))
			g.objects = append(g.objects[:i], g.objects[i+1:]...)
		}
	}
	// Cull objects that wandered far off-screen (relative to camera) and
	// respawn to keep density.
	for i := 0; i < len(g.objects); i++ {
		o := &g.objects[i]
		sx := o.x - g.camX
		if sx < -0.5 || sx > 1.5 {
			g.objects[i] = g.spawn(false)
			g.objects[i].x += g.camX
		}
	}
}

// render draws the background and objects into img/label.
func (g *Generator) render(img *tensor.Tensor, label []int32) {
	w, h := g.cfg.W, g.cfg.H
	hw := h * w
	r, gg, b := img.Data[:hw], img.Data[hw:2*hw], img.Data[2*hw:3*hw]
	light := float32(g.light)

	// Background, camera-translated so panning shifts the texture.
	g.renderBackground(r, gg, b, light)
	for i := range label[:hw] {
		label[i] = Background
	}

	// Objects back-to-front.
	order := make([]int, len(g.objects))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, bI int) bool { return g.objects[order[a]].depth < g.objects[order[bI]].depth })

	for _, oi := range order {
		o := &g.objects[oi]
		// Screen-space centre.
		cx := (o.x - g.camX) * float64(w)
		cy := (o.y - g.camY) * float64(h)
		rx := o.rx * float64(w)
		ry := o.ry * float64(h)
		if rx < 1 {
			rx = 1
		}
		if ry < 1 {
			ry = 1
		}
		x0 := int(math.Floor(cx - rx - 2))
		x1 := int(math.Ceil(cx + rx + 2))
		y0 := int(math.Floor(cy - ry - 2))
		y1 := int(math.Ceil(cy + ry + 2))
		if x0 < 0 {
			x0 = 0
		}
		if y0 < 0 {
			y0 = 0
		}
		if x1 > w {
			x1 = w
		}
		if y1 > h {
			y1 = h
		}
		for y := y0; y < y1; y++ {
			dy := (float64(y) - cy) / ry
			for x := x0; x < x1; x++ {
				dx := (float64(x) - cx) / rx
				if !o.contains(dx, dy) {
					continue
				}
				idx := y*w + x
				label[idx] = o.class
				// Striped object texture keeps classes visually distinct.
				tex := float32(0.12 * math.Sin(o.texFreq*g.dom.texScale*(dx+dy)+o.texPhase+o.phase))
				shade := float32(1 - 0.25*dy*dy) // simple top lighting
				r[idx] = clamp01(o.color[0]*shade + tex + light)
				gg[idx] = clamp01(o.color[1]*shade + tex + light)
				b[idx] = clamp01(o.color[2]*shade - tex + light)
			}
		}
	}

	// Per-video appearance domain: remix every pixel's colour. This is the
	// diversity that defeats the un-distilled "Wild" student while staying
	// internally consistent within one stream.
	for i := 0; i < hw; i++ {
		r[i], gg[i], b[i] = g.dom.apply(r[i], gg[i], b[i])
	}
}

// contains reports whether normalised offsets (dx,dy) fall inside the
// object silhouette.
func (o *object) contains(dx, dy float64) bool {
	switch o.shape {
	case Box:
		return dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1
	case Blob:
		ang := math.Atan2(dy, dx)
		rr := 1 + o.wobble*math.Sin(o.wobbleFreq*ang+o.phase)
		return dx*dx+dy*dy <= rr*rr
	default: // Ellipse
		return dx*dx+dy*dy <= 1
	}
}

// renderBackground fills the RGB planes with the scenery texture shifted by
// the camera position.
func (g *Generator) renderBackground(r, gg, b []float32, light float32) {
	w, h := g.cfg.W, g.cfg.H
	detail := float32(g.cfg.BGDetail)
	ox := g.camX * float64(w)
	oy := g.camY * float64(h)
	switch g.cfg.Scenery {
	case Animals:
		// Grass: green gradient with low-frequency patches.
		for y := 0; y < h; y++ {
			fy := float64(y) + oy
			sky := float32(0)
			if float64(y) < 0.2*float64(h) {
				sky = 0.35
			}
			for x := 0; x < w; x++ {
				fx := float64(x) + ox
				patch := detail * float32(math.Sin(fx*0.11)*math.Sin(fy*0.17))
				idx := y*w + x
				r[idx] = clamp01(0.2 + 0.3*sky + 0.5*patch*0.3 + light)
				gg[idx] = clamp01(0.45 + 0.25*sky + patch*0.5 + light)
				b[idx] = clamp01(0.15 + 0.55*sky + patch*0.2 + light)
			}
		}
	case People:
		// Indoor/park: warm flat background with soft vertical banding.
		for y := 0; y < h; y++ {
			fy := float64(y) + oy
			for x := 0; x < w; x++ {
				fx := float64(x) + ox
				band := detail * float32(math.Sin(fx*0.07)+0.4*math.Sin(fy*0.05))
				idx := y*w + x
				r[idx] = clamp01(0.55 + band*0.3 + light)
				gg[idx] = clamp01(0.5 + band*0.25 + light)
				b[idx] = clamp01(0.45 + band*0.2 + light)
			}
		}
	case Street:
		// Road (bottom), buildings (top), lane markings — busier texture.
		for y := 0; y < h; y++ {
			fy := float64(y) + oy
			road := float64(y) > 0.55*float64(h)
			for x := 0; x < w; x++ {
				fx := float64(x) + ox
				idx := y*w + x
				if road {
					lane := float32(0)
					if math.Mod(fx*0.15+fy*0.02, 6) < 0.7 && math.Abs(float64(y)-0.78*float64(h)) < 1.6 {
						lane = 0.5
					}
					grain := detail * float32(math.Sin(fx*0.9)*math.Sin(fy*1.1)) * 0.25
					r[idx] = clamp01(0.32 + lane + grain + light)
					gg[idx] = clamp01(0.32 + lane + grain + light)
					b[idx] = clamp01(0.34 + lane + grain + light)
				} else {
					win := detail * float32(math.Sin(fx*0.5)*math.Sin(fy*0.6))
					r[idx] = clamp01(0.5 + win*0.4 + light)
					gg[idx] = clamp01(0.45 + win*0.4 + light)
					b[idx] = clamp01(0.42 + win*0.35 + light)
				}
			}
		}
	}
}
