// backup: the full persistence lifecycle of a group-hash store —
// build, crash, recover, save to an image file, reopen "in the next
// process", and verify — exercising the PMFS-analogue image layer the
// paper's setup gets from PMFS itself.
//
//	go run ./examples/backup
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"grouphash"
)

func main() {
	dir, err := os.MkdirTemp("", "grouphash-backup-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	image := filepath.Join(dir, "index.img")

	// Process 1: build an index, survive a mid-operation power failure,
	// and save a clean image.
	sim, err := grouphash.NewSimulated(
		grouphash.Options{Capacity: 1 << 14, DisableExpand: true},
		grouphash.SimOptions{Seed: 21},
	)
	if err != nil {
		log.Fatal(err)
	}
	for i := uint64(1); i <= 8000; i++ {
		if err := sim.Insert(grouphash.Key{Lo: i}, i*7); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("process 1: built %s\n", sim.Store)

	sim.ScheduleCrash(sim.Counters().Accesses+4, 0.5)
	sim.Insert(grouphash.Key{Lo: 999_999}, 1)
	if !sim.CompleteCrash() {
		log.Fatal("crash trigger did not fire")
	}
	rep, err := sim.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process 1: crashed mid-insert, recovered (scrubbed %d cells, count corrected %v)\n",
		rep.CellsCleared, rep.CountCorrected)

	if err := sim.Snapshot(image); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(image)
	fmt.Printf("process 1: saved %s (%d KB)\n", filepath.Base(image), info.Size()>>10)

	// Process 2: a brand-new machine loads the image and verifies it.
	re, err := grouphash.LoadImage(image, grouphash.SimOptions{Seed: 99}, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("process 2: reopened %s\n", re.Store)
	if msgs := re.CheckConsistency(); len(msgs) != 0 {
		log.Fatalf("process 2: inconsistent image: %v", msgs)
	}
	missing := 0
	for i := uint64(1); i <= 8000; i++ {
		if v, ok := re.Get(grouphash.Key{Lo: i}); !ok || v != i*7 {
			missing++
		}
	}
	fmt.Printf("process 2: verified 8000 items, %d missing\n", missing)
	if missing != 0 {
		log.Fatal("durability violated")
	}

	// Process 2 keeps working where process 1 left off.
	for i := uint64(8001); i <= 9000; i++ {
		if err := re.Insert(grouphash.Key{Lo: i}, i*7); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("process 2: appended 1000 more items -> %s\n", re.Store)
	fmt.Println("lifecycle complete: build -> crash -> recover -> save -> reopen -> verify -> extend")
}
