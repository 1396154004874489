package trace

import (
	"math"
	"testing"
)

func mixCfg(t *testing.T, mut func(*MixConfig)) MixConfig {
	t.Helper()
	cfg := MixConfig{
		Records:    10_000,
		Theta:      0.99,
		Tenants:    1,
		ReadFrac:   0.5,
		UpdateFrac: 0.5,
		Seed:       42,
	}
	if mut != nil {
		mut(&cfg)
	}
	return cfg
}

// TestMixDeterminism: same config → identical step stream; Reset
// rewinds it.
func TestMixDeterminism(t *testing.T) {
	cfg := mixCfg(t, func(c *MixConfig) {
		c.Tenants = 3
		c.InsertFrac = 0.1
		c.UpdateFrac = 0.4
		c.RMWFrac = 0.1
		c.ReadFrac = 0.4
		c.Flash = &FlashCrowd{Start: 100, Ramp: 200, Hold: 500, Peak: 0.3}
		var err error
		c.Values, err = ParseValueDist("web")
		if err != nil {
			t.Fatal(err)
		}
	})
	a, err := NewMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]Step, 8192)
	for i := range steps {
		steps[i] = a.Next()
		if got := b.Next(); got != steps[i] {
			t.Fatalf("step %d diverged between same-config mixes: %+v vs %+v", i, steps[i], got)
		}
	}
	a.Reset()
	for i := range steps {
		if got := a.Next(); got != steps[i] {
			t.Fatalf("step %d after Reset diverged: %+v vs %+v", i, got, steps[i])
		}
	}
}

// TestMixTenantIsolation: every step's key carries its tenant's
// prefix, tenants cycle round-robin under Next, and NextFor pins one.
func TestMixTenantIsolation(t *testing.T) {
	const tenants = 4
	m, err := NewMix(mixCfg(t, func(c *MixConfig) { c.Tenants = tenants }))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, tenants)
	for i := 0; i < 4000; i++ {
		s := m.Next()
		if s.Tenant < 0 || s.Tenant >= tenants {
			t.Fatalf("tenant %d out of range", s.Tenant)
		}
		if got := s.Key.Lo >> 48; got != uint64(s.Tenant+1) {
			t.Fatalf("key %x carries tenant prefix %d, step says tenant %d", s.Key.Lo, got, s.Tenant)
		}
		counts[s.Tenant]++
	}
	for tn, c := range counts {
		if c != 1000 {
			t.Fatalf("tenant %d got %d/4000 steps under round-robin, want 1000", tn, c)
		}
	}
	m.Reset()
	for i := 0; i < 100; i++ {
		if s := m.NextFor(2); s.Tenant != 2 {
			t.Fatalf("NextFor(2) produced tenant %d", s.Tenant)
		}
	}
}

// TestMixFlashCrowd: during the hold window the hot record absorbs
// ~Peak of the traffic; before the start and well after the decay it
// absorbs only its Zipfian share.
func TestMixFlashCrowd(t *testing.T) {
	const (
		records = 10_000
		start   = 20_000
		ramp    = 5_000
		hold    = 40_000
		peak    = 0.30
	)
	m, err := NewMix(mixCfg(t, func(c *MixConfig) {
		c.Records = records
		c.Flash = &FlashCrowd{Start: start, Ramp: ramp, Hold: hold, Peak: peak}
	}))
	if err != nil {
		t.Fatal(err)
	}
	hotShare := func(n int) float64 {
		hot := 0
		for i := 0; i < n; i++ {
			if s := m.Next(); s.Hot {
				hot++
			}
		}
		return float64(hot) / float64(n)
	}
	before := hotShare(start)
	if before != 0 {
		t.Fatalf("hot share %.3f before the flash crowd, want 0", before)
	}
	hotShare(ramp) // skip the up-ramp
	during := hotShare(hold)
	if math.Abs(during-peak) > 0.03 {
		t.Fatalf("hot share %.3f during the hold window, want ~%.2f", during, peak)
	}
	hotShare(ramp) // skip the down-ramp
	after := hotShare(20_000)
	if after != 0 {
		t.Fatalf("hot share %.3f after the decay, want 0", after)
	}
	// The hot key is the Zipfian rank-0 record, so key-level traffic
	// concentration during the hold exceeds the Peak floor.
	m.Reset()
	for i := 0; i < start+ramp; i++ {
		m.Next()
	}
	hotKey := MixKey(0, 1, 0)
	hotOps := 0
	for i := 0; i < hold; i++ {
		if s := m.Next(); s.Key == hotKey {
			hotOps++
		}
	}
	if share := float64(hotOps) / hold; share < peak {
		t.Fatalf("hot-key traffic share %.3f during hold, want >= %.2f", share, peak)
	}
}

// TestMixOpRatios: the generated op mix tracks the configured
// fractions, and inserts mint strictly fresh ids.
func TestMixOpRatios(t *testing.T) {
	cfg := mixCfg(t, func(c *MixConfig) {
		c.ReadFrac, c.UpdateFrac, c.InsertFrac, c.RMWFrac = 0.6, 0.2, 0.1, 0.1
	})
	m, err := NewMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	var got [4]float64
	seen := map[uint64]bool{}
	maxID := cfg.Records
	for i := 0; i < n; i++ {
		s := m.Next()
		got[s.Op]++
		if s.Op == YCSBInsert {
			id := s.Key.Lo & mixIDMask
			if id <= cfg.Records || seen[id] {
				t.Fatalf("insert reused id %d", id)
			}
			seen[id] = true
			if id != maxID+1 {
				t.Fatalf("insert id %d not dense (want %d)", id, maxID+1)
			}
			maxID = id
		}
	}
	want := [4]float64{cfg.ReadFrac, cfg.UpdateFrac, cfg.InsertFrac, cfg.RMWFrac}
	for op, frac := range want {
		if math.Abs(got[op]/n-frac) > 0.01 {
			t.Fatalf("op %v share %.3f, want ~%.2f", YCSBOp(op), got[op]/n, frac)
		}
	}
}

// TestMixUniformTheta0: θ=0 must not favour the head.
func TestMixUniformTheta0(t *testing.T) {
	m, err := NewMix(mixCfg(t, func(c *MixConfig) { c.Theta = 0; c.Records = 1000 }))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	head := 0
	for i := 0; i < n; i++ {
		if id := m.Next().Key.Lo & mixIDMask; id <= 10 {
			head++
		}
	}
	if share := float64(head) / n; share > 0.02 {
		t.Fatalf("uniform mix put %.3f of traffic on the top 10 of 1000 keys", share)
	}
}

// TestValueDist covers the presets, custom specs, determinism of
// SpanFor and the mixture's weighting.
func TestValueDist(t *testing.T) {
	if _, err := ParseValueDist("nonsense"); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := ParseValueDist("0:10"); err == nil {
		t.Fatal("span 0 accepted")
	}
	fixed, err := ParseValueDist("fixed")
	if err != nil {
		t.Fatal(err)
	}
	if fixed.MaxSpan() != 1 || fixed.SpanFor(3, 77) != 1 {
		t.Fatal("fixed dist must always span 1")
	}
	web, err := ParseValueDist("web")
	if err != nil {
		t.Fatal(err)
	}
	if web.MaxSpan() != 64 {
		t.Fatalf("web max span %d, want 64", web.MaxSpan())
	}
	counts := map[int]int{}
	const n = 50_000
	for id := uint64(1); id <= n; id++ {
		s := web.SpanFor(0, id)
		if s2 := web.SpanFor(0, id); s2 != s {
			t.Fatalf("SpanFor not deterministic: %d vs %d", s, s2)
		}
		counts[s]++
	}
	for span, wantFrac := range map[int]float64{1: 0.80, 8: 0.15, 64: 0.05} {
		if got := float64(counts[span]) / n; math.Abs(got-wantFrac) > 0.02 {
			t.Fatalf("web span %d share %.3f, want ~%.2f", span, got, wantFrac)
		}
	}
	if m := web.MeanSpan(); math.Abs(m-(0.8*1+0.15*8+0.05*64)) > 1e-9 {
		t.Fatalf("web mean span %g", m)
	}
	custom, err := ParseValueDist("1:90,16:10")
	if err != nil {
		t.Fatal(err)
	}
	if custom.MaxSpan() != 16 {
		t.Fatalf("custom max span %d", custom.MaxSpan())
	}
	// Different tenants draw independent spans for the same id.
	diff := false
	for id := uint64(1); id <= 200; id++ {
		if web.SpanFor(0, id) != web.SpanFor(1, id) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("SpanFor ignores the tenant")
	}
}

// TestMixFracs pins the classic YCSB letters.
func TestMixFracs(t *testing.T) {
	r, u, i, w, err := MixFracs('a')
	if err != nil || r != 0.5 || u != 0.5 || i != 0 || w != 0 {
		t.Fatalf("mix a: %v %v %v %v %v", r, u, i, w, err)
	}
	if _, _, _, _, err := MixFracs('z'); err == nil {
		t.Fatal("mix z accepted")
	}
}

// TestMixValidation: the constructor must reject broken configs.
func TestMixValidation(t *testing.T) {
	bad := []func(*MixConfig){
		func(c *MixConfig) { c.Records = 1 },
		func(c *MixConfig) { c.Tenants = 0 },
		func(c *MixConfig) { c.ReadFrac = 0.9 }, // sum != 1
		func(c *MixConfig) { c.Theta = -1 },
		func(c *MixConfig) { c.Flash = &FlashCrowd{Peak: 2, Ramp: 1} },
		func(c *MixConfig) { c.Flash = &FlashCrowd{Peak: 0.3} }, // ramp 0
	}
	for i, mut := range bad {
		if _, err := NewMix(mixCfg(t, mut)); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}
