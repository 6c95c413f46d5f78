// Command pixelsweep runs a design-space sweep for one or more
// networks through the concurrent sweep engine and emits the results
// as JSON (for plotting) or a ranked table per network.
//
// Usage:
//
//	pixelsweep -net AlexNet -lanes 2,4,8,16 -bits 4,8,16,32 -json > sweep.json
//	pixelsweep -net VGG16 -workers 8 -progress
//	pixelsweep -net AlexNet,ZFNet,VGG16 -progress
//	pixelsweep -net VGG16 -checkpoint /tmp/sweep -resume
//
// With -checkpoint the sweep snapshots its completed grid cells to
// <dir>/pixelsweep.ckpt periodically and on SIGINT (exit status 3);
// -resume restores the snapshot and prices only the remaining cells.
// See docs/JOBS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"pixel"
	"pixel/internal/cliutil"
	"pixel/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pixelsweep:", err)
		os.Exit(cliutil.ExitStatus(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pixelsweep", flag.ContinueOnError)
	netNames := fs.String("net", "AlexNet", "comma-separated networks to sweep")
	lanesStr := fs.String("lanes", "2,4,8,16", "comma-separated lane counts")
	bitsStr := fs.String("bits", "4,8,16,32", "comma-separated bits/lane")
	jsonOut := fs.Bool("json", false, "emit JSON instead of a table")
	workers := fs.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report sweep progress on stderr")
	ckptDir := fs.String("checkpoint", "", "directory for crash-resumable snapshots (empty = none)")
	resume := fs.Bool("resume", false, "restore the -checkpoint snapshot and price only the remaining cells")
	ckptEvery := fs.Duration("checkpoint-every", 5*time.Second, "periodic snapshot cadence while running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lanes, err := cliutil.ParseInts(*lanesStr)
	if err != nil {
		return err
	}
	bits, err := cliutil.ParseInts(*bitsStr)
	if err != nil {
		return err
	}
	networks := cliutil.ParseNames(*netNames)
	if len(networks) == 0 {
		return fmt.Errorf("no networks given")
	}
	opts := &pixel.SweepOptions{Workers: *workers}
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep %d/%d points", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	// Ctrl-C cancels the sweep promptly instead of leaving the pool
	// grinding through the rest of the grid; with -checkpoint the
	// completed cells are flushed for a later -resume.
	var byNet map[string][]pixel.Result
	err = cliutil.RunResumable(context.Background(),
		cliutil.Checkpoint{Tool: "pixelsweep", Unit: "points", Dir: *ckptDir, Resume: *resume, Every: *ckptEvery},
		func() (*pixel.SweepJob, error) {
			return pixel.NewSweepJob(networks, pixel.Grid(pixel.Designs(), lanes, bits))
		},
		func(ctx context.Context, job *pixel.SweepJob) (err error) {
			byNet, err = job.Run(ctx, opts)
			return err
		})
	if err != nil {
		return err
	}

	if *jsonOut {
		var all []pixel.Result
		for _, name := range networks {
			all = append(all, byNet[name]...)
		}
		return pixel.WriteResultsJSON(os.Stdout, all)
	}
	for _, name := range networks {
		results := byNet[name]
		ranked := pixel.RankByEDP(results)
		tab := report.New(fmt.Sprintf("%s design-space sweep, ranked by EDP", name),
			"Rank", "Des", "Lanes", "Bits", "Energy [J]", "Latency [s]", "EDP [J*s]")
		for i, r := range ranked {
			tab.AddRow(fmt.Sprint(i+1), r.Design.String(),
				fmt.Sprint(r.Lanes), fmt.Sprint(r.Bits),
				report.Sci(r.EnergyJ), report.Sci(r.LatencyS), report.Sci(r.EDP))
		}
		best, err := pixel.BestEDP(results)
		if err != nil {
			return err
		}
		tab.AddNote("best point: %s at %d lanes, %d bits/lane", best.Design, best.Lanes, best.Bits)
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		if len(networks) > 1 {
			fmt.Println()
		}
	}
	return nil
}
