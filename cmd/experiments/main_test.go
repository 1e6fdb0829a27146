package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// flagSet returns a fresh flag set carrying the command's flags, so that
// Visit reports only the flags a parse sets.
func flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.CommandLine.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	return fs
}

// parse parses args on a fresh flag set.
func parse(t *testing.T, args string) *flag.FlagSet {
	t.Helper()
	fs := flagSet()
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("parsing %q: %v", args, err)
	}
	return fs
}

// TestScaleMustBePositiveFinite: -scale refuses, while the flags parse
// and so before anything runs, every value that is not a positive finite
// number, naming the flag. A campaign would fail every cell on such a
// scale but 0, which means the default, full scale.
func TestScaleMustBePositiveFinite(t *testing.T) {
	for _, v := range []string{"0", "-0", "-0.05", "-1", "NaN", "+Inf", "-Inf", "1e400", "x"} {
		err := flagSet().Parse([]string{"-summary", "-scale", v})
		if err == nil || !strings.Contains(err.Error(), "-scale") {
			t.Errorf("-scale %s: %v, want an error naming -scale", v, err)
		}
	}
	for _, v := range []string{"0.02", "2.5", "1"} {
		if err := flagSet().Parse([]string{"-summary", "-scale", v}); err != nil {
			t.Errorf("-scale %s refused: %v", v, err)
		}
	}
	if *scale != 1 {
		t.Fatalf("-scale 1 parsed to %v", *scale)
	}
}

// TestModesTable: the modes table refuses every flag its mode would drop,
// naming the flag and the mode, and accepts every combination that works,
// which includes every invocation the documentation shows.
func TestModesTable(t *testing.T) {
	refused := []struct {
		args string
		flag string // the flag the error must name
		mode string // and the mode
	}{
		{"-serve :7400 -summary -fig4", "-fig4", "-serve"},
		{"-serve :7400 -fig5", "-fig5", "-serve"},
		{"-serve :7400 -fig6", "-fig6", "-serve"},
		{"-serve :7400 -all", "-all", "-serve"},
		{"-serve :7400 -workers 4", "-workers", "-serve"},
		{"-matrix M00042 -procs 64", "-procs", "-matrix"},
		{"-serve :7400 -matrix M00042 -procs 64", "-procs", "-serve -matrix"},
		{"-matrix done -steal 4", "-steal", "-matrix"},
		{"-matrix M00042 -fig4", "-fig4", "-matrix"},
		{"-reprice j.jsonl -resume other.jsonl", "-resume", "-reprice"},
		{"-reprice j.jsonl -seed 7", "-seed", "-reprice"},
		{"-reprice j.jsonl -scale 0.5", "-scale", "-reprice"},
		{"-reprice j.jsonl -procs 8", "-procs", "-reprice"},
		{"-reprice j.jsonl -workers 2", "-workers", "-reprice"},
		{"-reprice j.jsonl -banks 4", "-banks", "-reprice"},
		{"-reprice j.jsonl -serve :7400", "-serve", "-reprice"},
		{"-worker host:7400 -serve :7400", "-serve", "-worker"},
		{"-worker host:7400 -summary", "-summary", "-worker"},
		{"-status host:7400 -summary", "-summary", "-status"},
		{"-summary -steal 4", "-steal", "a local run"},
		{"-e2e-doc -summary", "-summary", "-e2e-doc"},
		{"-matrix-list -matrix M00042", "-matrix", "-matrix-list"},
		{"-tech-list -scale 0.5", "-scale", "-tech-list"},
	}
	for _, tc := range refused {
		err := checkModes(parse(t, tc.args))
		if err == nil {
			t.Errorf("%q accepted, want it refused", tc.args)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, tc.flag+" ") || !strings.Contains(msg, "with "+tc.mode+",") {
			t.Errorf("%q: %v, want an error naming %s and %s", tc.args, err, tc.flag, tc.mode)
		}
	}

	accepted := []string{
		// Flags each mode uses: -tech everywhere, -steal with -serve, and
		// -banks, -topology and -resume with -matrix.
		"-serve :7400 -summary -tech t45",
		"-serve :7400 -summary -steal 2",
		"-serve :7400 -matrix done -steal 2 -resume j.jsonl -tech t45 -banks 4",
		"-matrix M00042 -tech t45 -banks 4 -resume j.jsonl",
		"-matrix M00801 -topology mesh -workers 2 -seed 7 -scale 0.05",
		"-reprice j.jsonl -tech t45,t32 -detail -summary -csv out.csv",
		// The package doc of this command.
		"-all",
		"-table1 -fig5",
		"-all -scale 0.25",
		"-all -workers 8",
		"-matrix-list",
		"-matrix M00042,M00049 -detail",
		"-matrix done -detail",
		"-e2e-doc",
		"-summary -resume ckpt.jsonl",
		"-serve :7400 -summary -csv out.csv",
		"-worker host:7400",
		"-serve :7400 -matrix done -resume j.jsonl",
		"-status host:7400",
		"-summary -tech t45",
		"-reprice j.jsonl -tech t45,t65-srpg50 -csv out.csv",
		"-summary -tech @my.json",
		"-tech-list",
		"-tech-list -tech @my.json",
		// README.md.
		"-matrix M00042,M00721 -detail",
		"-procs 64,128 -banks 4 -summary",
		"-procs 128 -topology mesh -detail",
		"-all -resume fleet.jsonl",
		"-reprice fleet.jsonl -tech t45,t65-srpg50 -csv swept.csv",
		"-summary -tech @points.json",
		"-serve 127.0.0.1:7400 -summary -csv out.csv",
		"-worker 127.0.0.1:7400",
		"-status 127.0.0.1:7400",
		// docs/*.md.
		"-serve :7400 -matrix done -detail",
		"-serve :7400 -summary -resume j.jsonl",
		"-table1",
		"-fig3",
		"-summary -scale 0.05 -tech @my.json",
		"-matrix all -csv out.csv -resume ckpt.jsonl",
		"-procs 64,128",
		// The repository's verification notes.
		"-summary -scale 0.05 -workers 4",
		"-matrix M00221,M00275 -detail -scale 0.05",
		"-summary -scale 0.05 -resume /tmp/j.jsonl",
		"-reprice /tmp/j.jsonl -tech t45 -csv /tmp/a.csv",
		"-summary -scale 0.05 -tech t45 -csv /tmp/b.csv",
		// The CI workflow.
		"-summary -scale 0.02 -csv local.csv",
		"-serve 127.0.0.1:7411 -summary -scale 0.02 -csv fleet.csv -resume fleet.jsonl",
		"-worker 127.0.0.1:7411 -workers 1",
		"-summary -scale 0.02 -resume fleet.jsonl -csv resumed.csv",
	}
	for _, args := range accepted {
		if err := checkModes(parse(t, args)); err != nil {
			t.Errorf("%q refused: %v", args, err)
		}
	}
}
