// Command pixelmc runs the Monte-Carlo variation engine: it fabricates
// N virtual parts per σ scale, perturbs each at the device level (MRR
// resonance offset, ambient excursion through the thermal tuning loop,
// MZI split error, comparator threshold offset), runs full quantized
// CNN inference through the fault-injecting bit-serial engine, and
// prints the yield curve. The run is a pure function of the spec and
// -seed: any -workers value produces the identical curve.
//
// Usage:
//
//	pixelmc -net lenet -design OO -trials 256 -sigma 0:0.5:5
//	pixelmc -net tiny -design OE -trials 64 -sigma 0,1,2,4 -budget 0.1 -json
//	pixelmc -net lenet -design OO -trials 256 -sigma 0:0.5:5 -protect guardband
//	pixelmc -net lenet -trials 1024 -checkpoint /tmp/mc -progress
//	pixelmc -net lenet -trials 1024 -checkpoint /tmp/mc -resume
//
// With -protect the same trials re-run through a fault-mitigation
// scheme (tmr, dmr, nmr:N, parity[:retries], guardband[:interval]) and
// the paired protected curve prints alongside, with the scheme's
// energy/latency/area overhead from the arch cost model.
//
// With -checkpoint the run snapshots its completed trials to
// <dir>/pixelmc.ckpt periodically and on SIGINT (exit status 3);
// -resume restores the snapshot and finishes only the remaining
// trials, producing the bit-identical report an uninterrupted run
// would have. See docs/JOBS.md.
package main

import (
	"context"
	"encoding/json"
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
		fmt.Fprintln(os.Stderr, "pixelmc:", err)
		os.Exit(cliutil.ExitStatus(err))
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pixelmc", flag.ContinueOnError)
	netName := fs.String("net", "lenet", "network to perturb (lenet, tiny)")
	designStr := fs.String("design", "OO", "MAC design: EE, OE or OO")
	trials := fs.Int("trials", 256, "virtual parts per sigma point")
	sigmaStr := fs.String("sigma", "0:0.5:5", "sigma-scale axis: start:step:stop or comma list")
	seed := fs.Int64("seed", 1, "root seed (the whole run is a pure function of spec+seed)")
	workers := fs.Int("workers", 0, "trial worker-pool size (0 = GOMAXPROCS; result is identical at any width)")
	budget := fs.Float64("budget", 0, "tolerated fraction of mismatched outputs per yielding part (0 = bit-exact)")
	protectStr := fs.String("protect", "", "protection scheme: tmr, dmr, nmr:N, parity[:retries], guardband[:interval] (empty = none)")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of a table")
	ckptDir := fs.String("checkpoint", "", "directory for crash-resumable snapshots (empty = none)")
	resume := fs.Bool("resume", false, "restore the -checkpoint snapshot and finish the remaining trials")
	ckptEvery := fs.Duration("checkpoint-every", 5*time.Second, "periodic snapshot cadence while running")
	progress := fs.Bool("progress", false, "report trial progress and ETA on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	design, err := pixel.ParseDesign(*designStr)
	if err != nil {
		return err
	}
	sigmas, err := cliutil.ParseFloatAxis(*sigmaStr)
	if err != nil {
		return err
	}
	protection, err := pixel.ParseProtection(*protectStr)
	if err != nil {
		return err
	}
	// Ctrl-C cancels the run; with -checkpoint the completed prefix is
	// flushed so a -resume rerun finishes the rest bit-exactly.
	var rep pixel.RobustnessReport
	err = cliutil.RunResumable(context.Background(),
		cliutil.Checkpoint{Tool: "pixelmc", Unit: "trials", Dir: *ckptDir, Resume: *resume, Every: *ckptEvery},
		func() (*pixel.RobustnessJob, error) {
			return pixel.NewRobustnessJob(pixel.RobustnessSpec{
				Network:     *netName,
				Design:      design,
				Sigmas:      sigmas,
				Trials:      *trials,
				Seed:        *seed,
				Workers:     *workers,
				ErrorBudget: *budget,
				Protection:  protection,
			})
		},
		func(ctx context.Context, job *pixel.RobustnessJob) (err error) {
			rep, err = job.Run(ctx, progressHooks(job, *progress))
			return err
		})
	if err != nil {
		return err
	}
	return render(rep, *asJSON)
}

// progressHooks reports trial progress and an ETA on stderr when
// progress is set.
func progressHooks(job *pixel.RobustnessJob, progress bool) pixel.RobustnessHooks {
	var hooks pixel.RobustnessHooks
	if !progress {
		return hooks
	}
	restored, total := job.Progress()
	start := time.Now()
	lastLine := time.Time{}
	points := 0
	hooks.OnPoint = func(int, pixel.YieldPoint, *pixel.ProtectedPoint) { points++ }
	hooks.OnTrial = func(done, _ int) {
		now := time.Now()
		if now.Sub(lastLine) < 500*time.Millisecond && done != total {
			return
		}
		lastLine = now
		line := fmt.Sprintf("pixelmc: %d/%d trials, %d sigma points done", done, total, points)
		// Rate from this session only: restored trials were free.
		if fresh := done - restored; fresh > 0 && done < total {
			eta := time.Duration(float64(now.Sub(start)) / float64(fresh) * float64(total-done))
			line += fmt.Sprintf(", ETA %s", eta.Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, line)
	}
	return hooks
}

func render(rep pixel.RobustnessReport, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	tab := report.New(
		fmt.Sprintf("%s on %s: %d trials/point, seed %d, error budget %g",
			rep.Design, rep.Network, rep.Trials, rep.Seed, rep.Budget),
		"Sigma", "Yield", "Argmax", "MeanMis", "P95Mis", "MaxMis", "InjBER", "Clean")
	for _, p := range rep.Points {
		tab.AddRow(
			report.F(p.Sigma, 2),
			report.F(p.Yield, 3),
			report.F(p.ArgmaxRate, 3),
			report.F(p.MeanMismatch, 4),
			report.F(p.P95Mismatch, 4),
			report.F(p.MaxMismatch, 4),
			report.Sci(p.MeanInjectedBER),
			fmt.Sprint(p.CleanTrials),
		)
	}
	tab.AddNote("yield = fraction of parts within budget; Clean = trials whose perturbation mapped to zero flip rates")
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}

	if pr := rep.Protection; pr != nil {
		fmt.Println()
		ptab := report.New(
			fmt.Sprintf("protected by %s: energy x%.2f, latency x%.2f, area x%.2f (no free protection)",
				pr.Scheme, pr.EnergyOverhead, pr.LatencyOverhead, pr.AreaOverhead),
			"Sigma", "Yield", "Argmax", "MeanMis", "P95Mis", "Retries", "GaveUp", "Clean")
		for _, p := range pr.Points {
			ptab.AddRow(
				report.F(p.Sigma, 2),
				report.F(p.Yield, 3),
				report.F(p.ArgmaxRate, 3),
				report.F(p.MeanMismatch, 4),
				report.F(p.P95Mismatch, 4),
				fmt.Sprint(p.Retries),
				fmt.Sprint(p.GaveUp),
				fmt.Sprint(p.CleanTrials),
			)
		}
		ptab.AddNote(fmt.Sprintf(
			"same trials, same fault draws (common random numbers); worst retry factor %.3f folded into the overheads",
			pr.MaxRetryFactor))
		if err := ptab.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
