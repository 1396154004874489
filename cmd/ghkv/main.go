// Command ghkv is an interactive key-value REPL over a group-hash store
// running on the simulated NVM machine. It exists to make the paper's
// consistency story tangible: you can insert items, pull the plug with
// `crash`, run `recover`, and watch the Algorithm-4 scan put the table
// back together — with the simulated performance counters printed along
// the way.
//
// Commands:
//
//	put <key> <value>     upsert (keys and values are uint64; key != 0)
//	insert <key> <value>  paper-semantics insert (duplicates allowed)
//	get <key>             lookup
//	del <key>             delete
//	len | stats           table statistics and simulated counters
//	crash [p]             power failure; each dirty word survives with
//	                      probability p (default 0.5)
//	recover               run the recovery scan
//	check                 verify consistency invariants
//	fill <n>              bulk-insert n sequential items
//	save <path>           persist the NVM image to a file (PMFS analogue)
//	help | quit
//
// Start with -image <path> to resume from a saved image.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"grouphash"
)

func main() {
	image := flag.String("image", "", "resume from a saved NVM image file")
	flag.Parse()

	var sim *grouphash.Sim
	var err error
	if *image != "" {
		sim, err = grouphash.LoadImage(*image, grouphash.SimOptions{Seed: 42})
		if err == nil {
			fmt.Printf("resumed %d items from %s\n", sim.Len(), *image)
		}
	} else {
		sim, err = grouphash.NewSimulated(
			grouphash.Options{Capacity: 1 << 16, DisableExpand: true},
			grouphash.SimOptions{Seed: 42},
		)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghkv:", err)
		os.Exit(1)
	}
	fmt.Println("ghkv — group hashing over simulated NVM (type 'help')")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "put", "insert":
			if len(args) != 2 {
				fmt.Println("usage:", cmd, "<key> <value>")
				continue
			}
			k, err1 := strconv.ParseUint(args[0], 10, 64)
			v, err2 := strconv.ParseUint(args[1], 10, 64)
			if err1 != nil || err2 != nil {
				fmt.Println("keys and values are unsigned integers")
				continue
			}
			before := sim.Counters()
			var opErr error
			if cmd == "put" {
				opErr = sim.Put(grouphash.Key{Lo: k}, v)
			} else {
				opErr = sim.Insert(grouphash.Key{Lo: k}, v)
			}
			if opErr != nil {
				fmt.Println("error:", opErr)
				continue
			}
			d := sim.Counters().Sub(before)
			fmt.Printf("ok (%.0f simulated ns, %d flushes, %d fences)\n", d.ClockNs, d.Flushes, d.Fences)
		case "get":
			if len(args) != 1 {
				fmt.Println("usage: get <key>")
				continue
			}
			k, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				fmt.Println("keys are unsigned integers")
				continue
			}
			before := sim.Counters()
			v, ok := sim.Get(grouphash.Key{Lo: k})
			d := sim.Counters().Sub(before)
			if ok {
				fmt.Printf("%d (%.0f simulated ns, %d L3 misses)\n", v, d.ClockNs, d.L3Misses)
			} else {
				fmt.Printf("not found (%.0f simulated ns)\n", d.ClockNs)
			}
		case "del":
			if len(args) != 1 {
				fmt.Println("usage: del <key>")
				continue
			}
			k, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				fmt.Println("keys are unsigned integers")
				continue
			}
			if sim.Delete(grouphash.Key{Lo: k}) {
				fmt.Println("deleted")
			} else {
				fmt.Println("not found")
			}
		case "len", "stats":
			c := sim.Counters()
			fmt.Printf("%s\n", sim.Store)
			fmt.Printf("simulated: %.2f ms, %d flushes, %d fences, %d L3 misses, %d NVM words written\n",
				c.ClockNs/1e6, c.Flushes, c.Fences, c.L3Misses, c.NVM.WordsDirtied)
		case "crash":
			p := 0.5
			if len(args) == 1 {
				if v, err := strconv.ParseFloat(args[0], 64); err == nil {
					p = v
				}
			}
			out := sim.Crash(p)
			fmt.Printf("power failure: %d dirty words, %d survived, %d rolled back\n",
				out.DirtyWords, out.Survived, out.RolledBack)
			fmt.Println("run 'recover' before trusting the table again")
		case "recover":
			rep, err := sim.Recover()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("scanned %d cells, scrubbed %d, count corrected: %v\n",
				rep.CellsScanned, rep.CellsCleared, rep.CountCorrected)
		case "check":
			if msgs := sim.CheckConsistency(); len(msgs) == 0 {
				fmt.Println("consistent")
			} else {
				for _, m := range msgs {
					fmt.Println("VIOLATION:", m)
				}
			}
		case "fill":
			if len(args) != 1 {
				fmt.Println("usage: fill <n>")
				continue
			}
			n, err := strconv.ParseUint(args[0], 10, 64)
			if err != nil {
				fmt.Println("n is an unsigned integer")
				continue
			}
			base := sim.Len() + 1_000_000
			inserted := uint64(0)
			for i := uint64(0); i < n; i++ {
				if err := sim.Insert(grouphash.Key{Lo: base + i}, i); err != nil {
					fmt.Println("stopped early:", err)
					break
				}
				inserted++
			}
			fmt.Printf("inserted %d items, load factor %.3f\n", inserted, sim.LoadFactor())
		case "save":
			if len(args) != 1 {
				fmt.Println("usage: save <path>")
				continue
			}
			if err := sim.Snapshot(args[0]); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("image saved; resume with: ghkv -image %s\n", args[0])
		case "help":
			fmt.Println("put/insert <k> <v>, get <k>, del <k>, len, stats, crash [p], recover, check, fill <n>, save <path>, quit")
		case "quit", "exit":
			return
		default:
			fmt.Printf("unknown command %q (try 'help')\n", cmd)
		}
	}
}
