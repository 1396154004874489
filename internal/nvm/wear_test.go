package nvm

import "testing"

func TestWearDisabledByDefault(t *testing.T) {
	r := NewRegion(1024, 1)
	if r.wear != nil {
		t.Fatal("wear tracking must be opt-in")
	}
	r.Store8(0, 1)
	r.PersistRange(0, 8)
	if r.WearOf(0) != 0 {
		t.Fatal("disabled tracking must read 0")
	}
	if s := r.Wear(); s.MediaWrites != 0 {
		t.Fatalf("disabled wear stats = %+v", s)
	}
}

func TestWearCountsPersists(t *testing.T) {
	r := NewRegion(1024, 1)
	r.EnableWearTracking()
	for i := 0; i < 5; i++ {
		r.Store8(0, uint64(i))
		r.PersistRange(0, 8)
	}
	if got := r.WearOf(0); got != 5 {
		t.Fatalf("WearOf = %d, want 5", got)
	}
	// Repeated stores without persists are one media write.
	for i := 0; i < 7; i++ {
		r.Store8(64, uint64(i))
	}
	r.PersistRange(64, 8)
	if got := r.WearOf(64); got != 1 {
		t.Fatalf("coalesced stores wore %d, want 1 (write coalescing in cache)", got)
	}
}

func TestWearCountsEvictionsAndSurvivors(t *testing.T) {
	r := NewRegion(1024, 1)
	r.EnableWearTracking()
	r.Store8(0, 1)
	r.Evict(0, 64)
	if r.WearOf(0) != 1 {
		t.Fatal("eviction is a media write")
	}
	r.Store8(8, 2)
	r.Crash(1.0) // survivor reached the media
	if r.WearOf(8) != 1 {
		t.Fatal("crash survivor is a media write")
	}
	r.Store8(16, 3)
	r.Crash(0.0) // rolled back: never reached the media
	if r.WearOf(16) != 0 {
		t.Fatal("rolled-back word must not count as a media write")
	}
}

func TestWearStatsSummary(t *testing.T) {
	r := NewRegion(4096, 1)
	r.EnableWearTracking()
	// Word 0: hot (10 writes). Words 8..80: one write each.
	for i := 0; i < 10; i++ {
		r.Store8(0, uint64(i))
		r.PersistRange(0, 8)
	}
	for w := uint64(8); w <= 80; w += 8 {
		r.Store8(w, w)
		r.PersistRange(w, 8)
	}
	s := r.Wear()
	if s.MediaWrites != 20 {
		t.Fatalf("MediaWrites = %d", s.MediaWrites)
	}
	if s.WordsTouched != 11 {
		t.Fatalf("WordsTouched = %d", s.WordsTouched)
	}
	if s.MaxPerWord != 10 || s.MaxWordAddr != 0 {
		t.Fatalf("hottest = %d @ %d", s.MaxPerWord, s.MaxWordAddr)
	}
	if s.MeanPerTouched < 1.8 || s.MeanPerTouched > 1.9 {
		t.Fatalf("MeanPerTouched = %v", s.MeanPerTouched)
	}
	if s.P99PerTouched != 10 {
		t.Fatalf("P99PerTouched = %d", s.P99PerTouched)
	}
}

func TestWearPersistAll(t *testing.T) {
	r := NewRegion(1024, 1)
	r.EnableWearTracking()
	r.Store8(0, 1)
	r.Store8(8, 2)
	r.PersistAll()
	if r.WearOf(0) != 1 || r.WearOf(8) != 1 {
		t.Fatal("PersistAll must count media writes")
	}
}
