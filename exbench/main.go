// Command exbench is the repository's exchange benchmark. It stands up one
// fixed deployment in a single process — the discovery agency served over
// its SOAP Register/Plan/Exchange operations with reliable sessions, the
// plan cache and the scheduler, and relational source and target endpoints
// on loopback HTTP whose target sessions are journaled under fsync=batch —
// and drives one named traffic mix through it as a closed loop: every
// client waits for its reply before sending again. No sleeps and no link
// model are injected, so the figures measure the program.
//
// Usage, from the root of the repository:
//
//	bash exbench/run.sh --workload initial_load --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, computed from spans recorded
// around the calls into each layer (the agency's and endpoints' HTTP
// handlers, the agency's outbound transport, the endpoint backends'
// relstore calls) and from the program's own obs counters. The line before
// it carries the run's metadata. A traced run also writes its spans to
// .bench_build/exbench-trace-<workload>.jsonl.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xdx/internal/xmltree"
)

// A run stands the deployment up at least minSetups times and for at least
// minSetupTime in total, at most maxSetups times; setup_s is the median, and
// the last deployment is the one measured.
const (
	minSetups    = 5
	maxSetups    = 25
	minSetupTime = 2 * time.Second
)

// buildDir holds what a run leaves behind: WAL directories (removed at the
// end) and span files.
const buildDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: initial_load, delta_sync or tenant_fleet")
	seed := fs.Int64("seed", 1, "seed for data generation, churn and tenant data")
	seconds := fs.Float64("seconds", 20, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	walParent, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walParent)

	var rec *recorder
	if *trace == 1 {
		rec = newRecorder(wl.clients)
	}
	cal := newCalibrator()
	setupSteal := startSteal()
	var setups []float64
	var total time.Duration
	var d *deployment
	for len(setups) < minSetups || (total < minSetupTime && len(setups) < maxSetups) {
		if d != nil {
			d.close()
		}
		runtime.GC()
		cal.measure(calWindow)
		t0 := time.Now()
		if d, err = newDeployment(wl, *seed, rec, walParent); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		el := time.Since(t0)
		total += el
		setups = append(setups, el.Seconds())
	}
	defer d.close()
	setupStealPct := setupSteal()

	dur := time.Duration(*seconds * float64(time.Second))
	hardCap := 3 * dur
	if hardCap > 120*time.Second {
		hardCap = 120 * time.Second
	}
	if hardCap < dur {
		hardCap = dur
	}
	p := d.drive(*seed, dur, hardCap, cal)
	scale := cal.scale(time.Time{}, time.Time{})
	f := scales{cpu: scale, wall: scale * (1 - p.stealPct/100), setup: scale * (1 - setupStealPct/100)}

	var m, raw metrics
	if rec == nil {
		if raw, err = endToEnd(p, median(setups)); err == nil {
			m = scaled(raw, f)
		}
	} else {
		m, err = perLayer(p, d, rec)
		if err == nil {
			err = rec.writeFile(filepath.Join(buildDir, "exbench-trace-"+wl.name+".jsonl"))
		}
	}
	if err != nil {
		return err
	}
	attempted, failed := p.counts()
	for i, f := range p.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "exbench: ... %d more failures\n", len(p.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "exbench: failure:", f)
	}
	steady := checkSteady(p, cal)
	if !steady.OK {
		fmt.Fprintf(os.Stderr, "exbench: steady-state check failed: %+v\n", steady)
	}

	var docBytes int64
	if t := d.tenants[0]; t.doc != nil {
		docBytes = xmltree.SerializedSize(t.doc, false)
	}
	meta := map[string]any{
		"workload":             wl.name,
		"why":                  wl.why,
		"seed":                 *seed,
		"seconds":              *seconds,
		"trace":                *trace,
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"network":              "loopback (127.0.0.1)",
		"fsync":                fsyncPolicy.String(),
		"codec":                p.codec,
		"clients":              wl.clients,
		"tenants":              wl.tenants,
		"doc_bytes":            docBytes,
		"exchanges":            len(completed(p.exchanges())),
		"measured_s":           p.wall.Seconds(),
		"host_steal_pct":       p.stealPct,
		"host_steal_setup_pct": setupStealPct,
		"host_iowait_pct":      p.iowaitPct,
		"setup_runs_s":         setups,
		"calibration": map[string]any{
			"kernel_ms":   cal.kernelMs(),
			"ref_ms":      refKernelMs,
			"scale":       scale,
			"wall_scale":  f.wall,
			"setup_scale": f.setup,
			"raw_metrics": raw,
		},
		"steady_state": steady,
		"workloads":    workloadTable(),
	}
	if wl.fleet {
		meta["customers_per_tenant"] = fleetCustomers
	}
	if err := writeJSONLine(stdout, map[string]any{"meta": meta}); err != nil {
		return err
	}
	return writeJSONLine(stdout, map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   m,
	})
}

// workloadTable lists every workload with the reason it was chosen.
func workloadTable() map[string]string {
	out := map[string]string{}
	for _, w := range workloads {
		out[w.name] = w.why
	}
	return out
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
