// Multilayer: the hot/cold memory architecture of §3.1 — consolidated
// images split between a small byte-addressable CXL tier and a large
// RDMA tier, plus frequency-based promotion between them.
//
//	go run ./examples/multilayer
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	trenv "repro"
	"repro/internal/mem"
	"repro/internal/workload"
)

func main() {
	// Part 1: run the container platform with progressively less CXL
	// (the tail of each image spills to RDMA).
	var names []string
	for _, fn := range trenv.Functions() {
		names = append(names, fn.Name)
	}
	cfgW1 := workload.DefaultW1(names)
	cfgW1.Duration = 8 * time.Minute
	cfgW1.BurstGap = 3 * time.Minute
	tr := workload.W1Bursty(rand.New(rand.NewSource(3)), cfgW1)

	fmt.Println("hot-fraction sweep (W1 bursty, fresh starts each burst):")
	for _, frac := range []float64{1.0, 0.5, 0.25} {
		cfg := trenv.DefaultContainerConfig(trenv.TrEnvCXL)
		cfg.KeepAlive = 2 * time.Minute
		cfg.HotFraction = frac
		pl := trenv.NewContainerPlatform(cfg)
		for _, fn := range trenv.Functions() {
			pl.Register(fn)
		}
		pl.RunTrace(tr)
		cxl, rdma, _ := pl.PoolUsage()
		fmt.Printf("  %.0f%% on CXL: e2e p99=%7.1fms  pool split cxl=%.2fGB rdma=%.2fGB\n",
			frac*100, pl.Metrics().All.E2E.Percentile(99),
			float64(cxl)/(1<<30), float64(rdma)/(1<<30))
	}

	if err := tierManager(os.Stdout); err != nil {
		panic(err)
	}
}

// tierManager is Part 2: blocks earn CXL residency by access frequency
// under a byte budget. Blocks are placed and printed in a fixed order,
// so the output is the same on every run.
func tierManager(w io.Writer) error {
	fmt.Fprintln(w, "\ntier manager (40 MB hot budget, blocks promoted by heat):")
	lat := mem.DefaultLatencyModel()
	hot := mem.NewPool(mem.CXL, 0, lat)
	cold := mem.NewPool(mem.RDMA, 0, lat)
	m, err := mem.NewTierManager(hot, cold, 40<<20)
	if err != nil {
		return err
	}
	blocks := []struct {
		name  string
		pages int
	}{{"python-runtime", 4500}, {"numpy", 3000}, {"rarely-used-lib", 6000}}
	for _, b := range blocks {
		if err := m.Place(b.name, b.pages); err != nil {
			return err
		}
	}
	m.RecordAccess("python-runtime", 500) // every invocation touches it
	m.RecordAccess("numpy", 120)
	m.RecordAccess("rarely-used-lib", 3)
	copyTime, err := m.Rebalance(1 << 30)
	if err != nil {
		return err
	}
	for _, b := range blocks {
		tier, _ := m.TierOf(b.name)
		fmt.Fprintf(w, "  %-16s -> %s\n", b.name, tier)
	}
	fmt.Fprintf(w, "  rebalance moved data in %v (off the critical path)\n", copyTime.Round(time.Millisecond))
	return nil
}
