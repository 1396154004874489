// Command ghverify inspects a saved NVM image (written by ghkv's `save`
// or a simulated store's Snapshot): it opens the group-hash table at the
// image's root, checks every consistency invariant, and optionally
// repairs the table with the Algorithm-4 recovery scan and writes the
// repaired image back.
//
// Usage:
//
//	ghverify -image table.img            # check only
//	ghverify -image table.img -repair    # recover + save back
//
// Exit status: 0 consistent (or repaired), 1 violations found and not
// repaired, 2 usage/IO errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"grouphash"
	"grouphash/internal/memsim"
	"grouphash/internal/pmfs"
)

func main() {
	image := flag.String("image", "", "path to a saved NVM image")
	repair := flag.Bool("repair", false, "run recovery and write the repaired image back")
	flag.Parse()
	if *image == "" {
		fmt.Fprintln(os.Stderr, "ghverify: -image is required")
		os.Exit(2)
	}

	mem, root, err := pmfs.Load(*image, memsim.Config{Seed: 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghverify: %v\n", err)
		os.Exit(2)
	}
	store, err := grouphash.Open(mem, root, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghverify: opening table: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("image:    %s\n", *image)
	fmt.Printf("table:    %s\n", store)
	fmt.Printf("root:     %#x, region %d bytes\n", root, mem.Size())

	violations := store.CheckConsistency()
	if len(violations) == 0 {
		fmt.Println("status:   consistent")
		return
	}
	fmt.Printf("status:   %d violation(s)\n", len(violations))
	for _, v := range violations {
		fmt.Println("  -", v)
	}
	if !*repair {
		fmt.Println("run with -repair to recover")
		os.Exit(1)
	}
	rep, err := store.Recover()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghverify: recovery: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("repaired: scanned %d cells, scrubbed %d, count corrected %v\n",
		rep.CellsScanned, rep.CellsCleared, rep.CountCorrected)
	if after := store.CheckConsistency(); len(after) != 0 {
		fmt.Fprintf(os.Stderr, "ghverify: STILL INCONSISTENT after recovery: %v\n", after)
		os.Exit(1)
	}
	if err := store.Snapshot(*image); err != nil {
		fmt.Fprintf(os.Stderr, "ghverify: saving repaired image: %v\n", err)
		os.Exit(2)
	}
	fmt.Println("status:   repaired and saved")
}
