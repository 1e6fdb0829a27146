// Command experiments regenerates every table and figure of the paper's
// evaluation section, and runs scenario-matrix campaigns beyond it.
//
// Usage:
//
//	experiments -all                    # everything (Tables I-II, Figures 3-7, summary)
//	experiments -table1 -fig5           # selected artifacts
//	experiments -all -scale 0.25        # quick quarter-size campaign
//	experiments -all -workers 8         # same output, 8 cells in flight
//	experiments -matrix-list            # list every scenario-matrix case
//	experiments -matrix M00042,M00049 -detail        # run cases by id
//	experiments -matrix done -detail    # run every case the E2E table executes
//	experiments -e2e-doc > docs/E2E.md  # regenerate the E2E case table
//	experiments -summary -resume ckpt.jsonl          # checkpoint every cell;
//	    # Ctrl-C, then re-run the same command: it restarts at the first
//	    # incomplete cell and the final output is byte-identical
//	experiments -serve :7400 -summary -csv out.csv   # distributed: lease the
//	    # campaign's cells to workers, merge byte-identically
//	experiments -worker host:7400                    # join a coordinator and
//	    # run leased cells on a local session; on exit it prints how many
//	    # traces it generated and baselines it ran
//	experiments -serve :7400 -matrix done -resume j.jsonl  # distribute the
//	    # done-set; the journal doubles as a -resume checkpoint
//	experiments -status host:7400                    # one-shot fleet status
//	    # snapshot (phase counts, per-worker counters, throughput, ETA)
//	experiments -summary -tech t45      # price the campaign under another
//	    # energy technology point (see -tech-list); timing is unchanged
//	experiments -reprice j.jsonl -tech t45,t65-srpg50 -csv out.csv  # re-price
//	    # a checkpoint/fleet journal under other tech points WITHOUT
//	    # re-simulating: byte-identical to fresh runs under each tech
//	experiments -summary -tech @my.json # price under a user-defined tech
//	    # point loaded from JSON (one object or an array; see energy.Tech)
//	experiments -tech-list              # list the technology points
//	experiments -tech-list -tech @my.json            # ... and the points
//	    # the file defines (parameters, derived Table I factors)
//
// Every sweep runs on one clockgate session (worker pool + trace cache +
// optional checkpoint sink); SIGINT/SIGTERM cancel the session's context,
// which stops the simulators mid-run. In -serve mode the cells execute on
// remote workers instead (docs/DISTRIBUTED.md specifies the protocol);
// output is byte-identical either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/stamp"
)

// The command's flags live at package level so that a test can parse a
// command line against them.
var (
	all        = flag.Bool("all", false, "regenerate everything")
	table1     = flag.Bool("table1", false, "Table I: power model")
	table2     = flag.Bool("table2", false, "Table II: simulation parameters")
	fig3       = flag.Bool("fig3", false, "Figure 3: TCC data cache power")
	fig4       = flag.Bool("fig4", false, "Figure 4: parallel execution time")
	fig5       = flag.Bool("fig5", false, "Figure 5: energy consumption")
	fig6       = flag.Bool("fig6", false, "Figure 6: average power dissipation")
	fig7       = flag.Bool("fig7", false, "Figure 7: speed-up vs W0 and Np")
	summary    = flag.Bool("summary", false, "headline summary vs the paper")
	detail     = flag.Bool("detail", false, "per-configuration detail table")
	ablation   = flag.Bool("ablations", false, "policy / renewal / SRPG ablation tables")
	extended   = flag.Bool("extended", false, "run the five extension presets too")
	seeds      = flag.Int("seeds", 0, "re-run the campaign across N seeds and report spread")
	csvPath    = flag.String("csv", "", "also write per-configuration results to this CSV file")
	seed       = flag.Uint64("seed", 42, "workload generation seed")
	scale      = positiveFlag("scale", 1.0, "workload size multiplier (a positive finite `number`)")
	workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "campaign worker goroutines (1 = sequential; output is identical either way)")
	procs      = flag.String("procs", "", "comma-separated processor counts overriding the paper's 4,8,16 sweep (up to 128, e.g. \"32,64,128\")")
	banks      = flag.Int("banks", 0, "interconnect banks: 0 = the single split bus, a power of two = the address-interleaved banked bus (cells that pin their own shape, like matrix cases M00721+, keep it)")
	topology   = flag.String("topology", "", "interconnect topology: \"bus\" (default), \"xbar[:N]\", \"mesh[:RxC]\" or \"ring[:N]\"; non-bus fabrics require -banks 0 (cells that pin their own shape, like matrix cases M00801+, keep it)")
	matrix     = flag.String("matrix", "", "run scenario-matrix cases: comma-separated ids/names, \"done\", or \"all\"")
	matrixList = flag.Bool("matrix-list", false, "list every scenario-matrix case")
	e2eDoc     = flag.Bool("e2e-doc", false, "print the generated docs/E2E.md")
	resume     = flag.String("resume", "", "JSONL checkpoint file: completed cells are appended as they finish and an interrupted run restarts at the first incomplete cell")
	serve      = flag.String("serve", "", "coordinate a distributed campaign on this listen address (e.g. \":7400\"): cells are leased to -worker processes and merged byte-identically to a local run; with -resume the file doubles as the coordinator journal")
	worker     = flag.String("worker", "", "join the coordinator at this address (host:port) and execute leased cells on a local session with -workers goroutines")
	status     = flag.String("status", "", "print the /v1/status snapshot of the coordinator at this address (host:port) and exit")
	steal      = flag.Int("steal", 8, "with -serve: once at most N unfinished cells remain and none are pending, re-lease the oldest in-flight cells to idle workers (straggler stealing; 0 disables)")
	tech       = flag.String("tech", "", "energy technology point pricing the campaign's cells (see -tech-list; default: the paper's Table I point); with -reprice, a comma-separated list re-prices the journal under each point; \"@file.json\" elements load user-defined points from a JSON file")
	techList   = flag.Bool("tech-list", false, "list the registered energy technology points, plus any that -tech @file.json loads, and their model derivations")
	reprice    = flag.String("reprice", "", "re-price the cells of this checkpoint/fleet journal under -tech WITHOUT re-simulating (pure checkpoint arithmetic; combines with -detail/-summary/-csv)")
)

// positive is a flag value that holds a positive finite number. A
// campaign fails every cell on any other scale but 0, the library's
// spelling of the default 1, so the flag refuses one while the flags
// parse, before anything runs.
type positive float64

// positiveFlag defines a flag whose value must be a positive finite
// number.
func positiveFlag(name string, value float64, usage string) *positive {
	p := positive(value)
	flag.Var(&p, name, usage)
	return &p
}

func (p *positive) String() string { return strconv.FormatFloat(float64(*p), 'g', -1, 64) }

func (p *positive) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0) || math.IsInf(v, 0) {
		return errors.New("must be a positive finite number")
	}
	*p = positive(v)
	return nil
}

// mode is one row of the table of flag combinations: the flags that
// select the mode, and the flags it accepts beside them.
type mode struct {
	flags   []string
	accepts []string
}

// modes is the one table of the flag combinations the command accepts.
// The first row whose flags are all set selects the mode, and every
// other flag set must be one that row accepts; the last row, with no
// flags, is a local run. A row accepts exactly the flags its mode uses,
// so no flag is dropped silently.
var modes = []mode{
	{[]string{"e2e-doc"}, nil},
	{[]string{"matrix-list"}, nil},
	{[]string{"tech-list"}, []string{"tech"}},
	{[]string{"status"}, nil},
	{[]string{"worker"}, []string{"workers"}},
	{[]string{"reprice"}, []string{"tech", "detail", "summary", "csv"}},
	// Each matrix case pins its processor count, so -procs has nothing
	// to set.
	{[]string{"serve", "matrix"}, []string{"detail", "summary", "csv", "seed", "scale", "banks", "topology", "tech", "resume", "steal"}},
	{[]string{"serve"}, []string{"detail", "summary", "csv", "seed", "scale", "procs", "banks", "topology", "tech", "resume", "steal"}},
	{[]string{"matrix"}, []string{"detail", "summary", "csv", "workers", "seed", "scale", "banks", "topology", "tech", "resume"}},
	{nil, []string{"all", "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "summary", "detail", "ablations",
		"extended", "seeds", "csv", "seed", "scale", "workers", "procs", "banks", "topology", "resume", "tech"}},
}

// checkModes checks the flags set on fs against the modes table.
func checkModes(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	for _, m := range modes {
		if slices.ContainsFunc(m.flags, func(f string) bool { return !slices.Contains(set, f) }) {
			continue // some flag of this mode is not set
		}
		for _, name := range set {
			if slices.Contains(m.flags, name) || slices.Contains(m.accepts, name) {
				continue
			}
			what := "a local run"
			if len(m.flags) > 0 {
				what = "-" + strings.Join(m.flags, " -")
			}
			if len(m.accepts) == 0 {
				return fmt.Errorf("-%s does not combine with %s, which takes no other flag", name, what)
			}
			return fmt.Errorf("-%s does not combine with %s, which combines only with -%s", name, what, strings.Join(m.accepts, "/-"))
		}
		return nil
	}
	return nil
}

func main() {
	flag.Parse()
	if err := checkModes(flag.CommandLine); err != nil {
		fatal(err)
	}

	if *all {
		*table1, *table2, *fig3, *fig4, *fig5, *fig6, *fig7 = true, true, true, true, true, true, true
		*summary, *detail = true, true
	}
	if !(*table1 || *table2 || *fig3 || *fig4 || *fig5 || *fig6 || *fig7 ||
		*summary || *detail || *ablation || *extended || *seeds > 0 || *csvPath != "" ||
		*matrix != "" || *matrixList || *e2eDoc || *serve != "" || *worker != "" || *status != "" ||
		*techList || *reprice != "") {
		flag.Usage()
		os.Exit(2)
	}

	if *e2eDoc {
		fmt.Print(experiments.E2EDoc())
		return
	}
	if *matrixList {
		fmt.Println(experiments.MatrixTable())
		return
	}
	if *techList {
		// Points loaded with -tech @file.json register first, so the
		// listing shows their parameters and factors too.
		if _, err := parseTechs(*tech); err != nil {
			fatal(err)
		}
		for _, t := range energy.Techs() {
			fmt.Print(t.Describe())
		}
		return
	}

	if *status != "" {
		// Status mode: one read-only control-plane snapshot, no session.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		st, err := dist.FetchStatus(ctx, nil, *status)
		if err != nil {
			fatal(err)
		}
		fmt.Print(st.Summary())
		return
	}

	if *worker != "" {
		// Worker mode: no local campaign at all — join the coordinator
		// and execute leased cells until it reports the campaign done.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		st, err := dist.Work(ctx, *worker, dist.WorkerOptions{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("worker done: %d cells over %d leases (%d transient-error retries, %d lease renewals)\n",
			st.Cells, st.Leases, st.Retries, st.Renewals)
		fmt.Printf("worker session: %d trace generations, %d trace hits; %d baselines run, %d shared, %d waited; %d System reuses, %d rebuilds\n",
			st.TraceGenerations, st.TraceHits, st.BaselinesRun, st.BaselinesShared, st.BaselinesWaited, st.SystemReuses, st.SystemRebuilds)
		return
	}

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.Scale = float64(*scale)
	opts.Workers = *workers
	if *procs != "" {
		list, err := parseProcs(*procs)
		if err != nil {
			fatal(err)
		}
		opts.Processors = list
	}
	if err := config.ValidateBanks(*banks); err != nil {
		fatal(fmt.Errorf("-banks %d must be 0 (single bus) or a power of two up to %d", *banks, config.MaxBanks))
	}
	opts.Banks = *banks
	// Validate the topology spec (and its exclusion with banking) up
	// front against the widest machine the run may build, so a typo fails
	// here with a parse error instead of mid-campaign.
	if err := bus.ValidateTopology(*topology, *banks, config.MaxProcessors); err != nil {
		fatal(err)
	}
	opts.Topology = *topology

	techs, err := parseTechs(*tech)
	if err != nil {
		fatal(err)
	}
	for _, name := range techs {
		if _, err := energy.Resolve(name); err != nil {
			fatal(err)
		}
	}
	if *reprice == "" {
		// Campaigns price every cell under one technology point; only the
		// reprice mode fans a journal out across several.
		if len(techs) > 1 {
			fatal(fmt.Errorf("-tech with a list combines only with -reprice; a campaign prices under one technology point"))
		}
		if len(techs) == 1 {
			opts.Tech = techs[0]
		}
	}

	// One session runs every requested sweep: worker pool, trace cache
	// and checkpoint sink are shared across them. SIGINT/SIGTERM cancel
	// the context, which stops the simulators mid-run; with -resume the
	// completed cells are already on disk and the next run picks up at
	// the first incomplete cell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	session := experiments.NewSession(opts)
	defer session.Close()
	if *resume != "" && *serve == "" {
		// In -serve mode the coordinator owns the journal instead; two
		// writers on one checkpoint file would corrupt it.
		if err := session.SetCheckpoint(*resume); err != nil {
			fatal(err)
		}
		if n := session.Checkpoint().Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: resuming from %s (%d cells on record)\n", *resume, n)
		}
	}

	writeCSV := func(c *experiments.Campaign) {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := c.WriteCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}

	if *reprice != "" {
		// Reprice mode: no simulation at all — the journal's residency
		// totals are re-priced under each requested technology point, and
		// the output is byte-identical to fresh simulated runs under them.
		campaign, err := experiments.RepriceFile(*reprice, techs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Re-priced %s: %d rows", *reprice, len(campaign.Outcomes))
		if len(techs) > 0 {
			fmt.Printf(" (%d cells x %d tech points)", len(campaign.Outcomes)/len(techs), len(techs))
		}
		fmt.Println(", zero cells simulated")
		if *detail {
			fmt.Println(campaign.DetailTable())
		}
		if *summary {
			fmt.Println(campaign.SummaryText())
		}
		if *csvPath != "" {
			writeCSV(campaign)
		}
		return
	}

	if *serve != "" {
		// Coordinator mode: the campaign's cells execute on -worker
		// processes instead of the local session; the merged output is
		// byte-identical to a local run of the same flags.
		var cells []experiments.Cell
		if *matrix != "" {
			scenarios, err := selectScenarios(*matrix)
			if err != nil {
				fatal(err)
			}
			cells = opts.ScenarioCells(scenarios)
		} else {
			cells = opts.Cells()
		}
		// Listen before the coordinator creates the journal, so that a
		// busy address leaves none behind.
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(err)
		}
		coord, err := dist.NewCoordinator(opts, cells, dist.Config{
			CheckpointPath: *resume,
			StealThreshold: *steal,
			OnListen: func(a string) {
				fmt.Fprintf(os.Stderr, "experiments: coordinating %d cells on %s (point workers at it with -worker, inspect with -status)\n", len(cells), a)
			},
		})
		if err != nil {
			ln.Close()
			fatal(err)
		}
		campaign, err := coord.Serve(ctx, ln)
		if err != nil {
			fatalRun(err, *resume)
		}
		st := coord.Stats()
		fmt.Fprintf(os.Stderr, "experiments: distributed campaign complete: %d cells (%d restored from journal, %d leases, %d expired, %d renewals, %d stolen, %d duplicate returns)\n",
			len(cells), st.Restored, st.Leases, st.Expired, st.Renewals, st.Steals, st.Duplicates)
		if *detail {
			fmt.Println(campaign.DetailTable())
		}
		if *summary {
			fmt.Println(campaign.SummaryText())
		}
		if *csvPath != "" {
			writeCSV(campaign)
		}
		return
	}

	if *matrix != "" {
		// A matrix run replaces the paper campaign.
		scenarios, err := selectScenarios(*matrix)
		if err != nil {
			fatal(err)
		}
		campaign, err := session.RunScenarios(ctx, scenarios)
		if err != nil {
			fatalRun(err, *resume)
		}
		fmt.Printf("Scenario matrix campaign (%d of %d selected cases):\n",
			len(campaign.Outcomes), len(scenarios))
		fmt.Println(campaign.DetailTable())
		if *summary {
			fmt.Println(campaign.SummaryText())
		}
		if *csvPath != "" {
			writeCSV(campaign)
		}
		return
	}

	if *table1 {
		fmt.Println(experiments.TableI())
	}
	if *table2 {
		fmt.Println(experiments.TableII())
	}
	if *fig3 {
		fmt.Println(experiments.Fig3())
	}

	needsCampaign := *fig4 || *fig5 || *fig6 || *summary || *detail || *csvPath != ""
	if needsCampaign {
		campaign, err := session.Run(ctx)
		if err != nil {
			fatalRun(err, *resume)
		}
		if *fig4 {
			fmt.Println(campaign.Fig4())
		}
		if *fig5 {
			fmt.Println(campaign.Fig5())
		}
		if *fig6 {
			fmt.Println(campaign.Fig6())
		}
		if *detail {
			fmt.Println(campaign.DetailTable())
		}
		if *summary {
			fmt.Println(campaign.SummaryText())
		}
		if *csvPath != "" {
			writeCSV(campaign)
		}
	}

	if *fig7 {
		out, err := session.Fig7(ctx)
		if err != nil {
			fatalRun(err, *resume)
		}
		fmt.Println(out)
	}

	if *ablation {
		out, err := session.Ablations(ctx)
		if err != nil {
			fatalRun(err, *resume)
		}
		fmt.Println(out)
	}

	if *extended {
		// The extension presets are a campaign of their own: their apps
		// change the options fingerprint, so they run on a second session,
		// without the -resume checkpoint, under the same cancellable ctx.
		eo := opts
		eo.Apps = []stamp.App{stamp.Bayes, stamp.KMeans, stamp.Labyrinth, stamp.SSCA2, stamp.Vacation}
		es := experiments.NewSession(eo)
		campaign, err := es.Run(ctx)
		es.Close()
		if err != nil {
			fatalRun(err, *resume)
		}
		fmt.Println("Extension presets (beyond the paper's evaluation):")
		fmt.Println(campaign.DetailTable())
		fmt.Println(campaign.SummaryText())
	}

	if *seeds > 0 {
		list := make([]uint64, *seeds)
		for i := range list {
			list[i] = *seed + uint64(i)
		}
		ms, err := session.MultiSeed(ctx, list)
		if err != nil {
			fatalRun(err, *resume)
		}
		fmt.Println(ms.Render())
	}
}

// parseProcs parses "-procs 32,64,128" into a processor-count list.
func parseProcs(arg string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -procs entry %q (want positive counts, e.g. 32,64,128)", tok)
		}
		if n > config.MaxProcessors {
			return nil, fmt.Errorf("-procs entry %d exceeds the %d-processor machine ceiling", n, config.MaxProcessors)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-procs selected no processor counts")
	}
	return out, nil
}

// parseTechs parses "-tech t45,t65-srpg50" into a tech-name list; ""
// means none (the default point for campaigns, as-recorded for
// -reprice). An "@file.json" element loads user-defined points from the
// file (energy.LoadFile) and expands to their names in file order, so
// "-tech @points.json" prices a campaign under a custom point and
// "-tech t65,@points.json -reprice j.jsonl" fans a journal out across
// built-in and loaded points alike.
func parseTechs(arg string) ([]string, error) {
	var out []string
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "":
		case strings.HasPrefix(tok, "@"):
			loaded, err := energy.LoadFile(strings.TrimPrefix(tok, "@"))
			if err != nil {
				return nil, err
			}
			for _, tp := range loaded {
				out = append(out, tp.Name)
			}
		default:
			out = append(out, tok)
		}
	}
	return out, nil
}

// selectScenarios resolves the -matrix argument: "all", "done", or a
// comma-separated list of case ids / scenario names.
func selectScenarios(arg string) ([]experiments.Scenario, error) {
	switch arg {
	case "all":
		return experiments.Matrix(), nil
	case "done":
		return experiments.DoneScenarios(), nil
	}
	var out []experiments.Scenario
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		s, ok := experiments.ScenarioByID(tok)
		if !ok {
			s, ok = experiments.ScenarioByName(tok)
		}
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (try -matrix-list)", tok)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// fatalRun reports a sweep failure. A context cancellation is the user's
// SIGINT, not an error: report what was saved and exit with the
// conventional interrupted status.
func fatalRun(err error, resume string) {
	if errors.Is(err, context.Canceled) {
		if resume != "" {
			fmt.Fprintln(os.Stderr, "experiments: interrupted; completed cells are checkpointed — re-run the same command to resume at the first incomplete cell")
		} else {
			fmt.Fprintln(os.Stderr, "experiments: interrupted (use -resume FILE to make runs restartable)")
		}
		os.Exit(130)
	}
	fatal(err)
}
