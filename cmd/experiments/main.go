// Command experiments regenerates the tables and figures of the
// ShapeSearch paper's evaluation on the synthetic dataset substitutes.
//
//	experiments -list
//	experiments -run fig10 -full
//	experiments -run all            # quick mode by default
//
// Results print as markdown tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"shapesearch/internal/experiments"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment id or 'all' (see -list)")
		full   = flag.Bool("full", false, "full published dataset dimensions (slow; default is quick mode)")
		trials = flag.Int("trials", 0, "timed trials per measurement (0 = default)")
		list   = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	cfg := experiments.QuickConfig()
	if *full {
		cfg = experiments.DefaultConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}

	mode := "quick"
	if *full {
		mode = "full"
	}
	fmt.Printf("# ShapeSearch experiment run (%s mode, %s)\n\n", mode, time.Now().Format(time.RFC3339))

	if *run == "all" {
		// Stream results one experiment at a time so long runs show
		// progress as they go.
		for _, id := range experiments.IDs() {
			fn, _ := experiments.ByID(id)
			fmt.Println(fn(cfg).Render())
		}
		return
	}
	fn, ok := experiments.ByID(*run)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown id %q; use -list\n", *run)
		os.Exit(1)
	}
	fmt.Println(fn(cfg).Render())
}
