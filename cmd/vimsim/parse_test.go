package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestParseModeTable pins which flags each mode accepts, without running
// any simulation: every row is one (mode, flag) case, and a rejected flag
// must come back as the one-line "mode X does not support -Y" error even
// when its value equals the default.
func TestParseModeTable(t *testing.T) {
	type row struct {
		args   string
		reject string // the rejected flag, without the dash; "" = accepted
	}
	rows := []row{
		// Silently ignored before the mode table existed (three recur in
		// the cross products below).
		{"-mode serve -scenario x.json", "scenario"},
		{"-mode vim -slots 9", "slots"},
		{"-mode sw -vcd f.vcd", "vcd"},
		{"-mode normal -policy lru", "policy"},
		{"-mode replay -scenario run.json -as fleet", "as"},
		// Given explicitly at the default value still counts as given.
		{"-mode serve -app idea", "app"},
		{"-mode saturate -gap 0.15", "gap"},
		{"-mode replay -scenario run.json -seed 1", "seed"},
		{"-mode vim -as serve", "as"},
		{"-mode vim -budget 2", "budget"},
		{"-mode vim -stage", "stage"},
		{"-mode vim -metrics-out m.prom", "metrics-out"},
		{"-mode multi -app vecadd", "app"},
		{"-mode multi -policy lru", "policy"},
		{"-mode serve -rps 900", "rps"},
		{"-mode serve -ramp", "ramp"},
		{"-mode serve -boards 2", "boards"},
		{"-mode saturate -boards 2", "boards"},
		{"-mode saturate -dispatch po2", "dispatch"},
		{"-mode fleet -gap 0.2", "gap"},
		{"-mode fleet -size 4096", "size"},
		{"-mode replay -scenario run.json -tolerance 0.1", "tolerance"},
		{"-mode replay -scenario run.json -policy lru", "policy"},
		// record accepts exactly its -as mode's flags, minus -ramp.
		{"-mode record -as serve -scenario r.json -rps 900", "rps"},
		{"-mode record -as fleet -scenario r.json -gap 0.2", "gap"},
		{"-mode record -as saturate -scenario r.json -boards 2", "boards"},
		{"-mode record -as serve -scenario r.json -format json", "format"},
		{"-mode record -as serve -scenario r.json -junit j.xml", "junit"},
		// Accepted: each mode with the flags its runner reads.
		{"", ""},
		{"-mode vim -app adpcm -size 8192 -board EPXA4 -seed 3 -policy lru -pipelined -bounce -prefetch 1 -vcd f.vcd", ""},
		{"-mode normal -app adpcm -size 4096 -board EPXA4 -seed 2", ""},
		{"-mode chunked -app idea -size 32768", ""},
		{"-mode sw -app vecadd -size 4096 -board EPXA10", ""},
		{"-mode multi -board EPXA4 -arb global-lru -split 4 -size 8192 -seed 3", ""},
		{"-mode serve -board EPXA4 -policy slack -slots 3 -jobs 8 -bw 1e6 -gap 0.2 -stage -budget 2 -seed 2", ""},
		{"-mode serve -metrics-out m.prom -trace-out t.json -sample-ps 1e9", ""},
		{"-mode saturate -rps 900 -arrival bursty -admit reject -ramp -slots 3 -stage", ""},
		{"-mode fleet -boards 2 -dispatch po2 -rps 1600 -admit degrade -metrics-out m.json", ""},
		{"-mode record -as serve -scenario r.json -gap 0.2 -match metrics -tolerance 0.1", ""},
		{"-mode record -as saturate -scenario r.json -rps 900 -arrival uniform -admit reject -trace-out t.json", ""},
		{"-mode record -as fleet -scenario r.json -boards 2 -dispatch affinity -budget 2", ""},
		{"-mode replay -scenario run.json -match metrics -format json -junit j.xml -metrics-out m.json", ""},
	}
	cross := func(modes, flags []string) {
		for _, m := range modes {
			for _, f := range flags {
				rows = append(rows, row{"-mode " + m + " " + f, strings.TrimPrefix(strings.Fields(f)[0], "-")})
			}
		}
	}
	cross([]string{"vim", "sw", "normal", "chunked", "multi"}, []string{"-slots 3", "-jobs 8", "-bw 1e6", "-gap 0.2"})
	cross([]string{"sw", "normal", "chunked", "multi", "serve", "saturate", "fleet",
		"record -as serve -scenario r.json", "replay -scenario run.json"}, []string{"-vcd f.vcd"})
	cross([]string{"vim", "sw", "normal", "chunked", "serve", "saturate", "fleet",
		"record -as fleet -scenario r.json", "replay -scenario run.json"}, []string{"-arb global-lru", "-split 4"})
	cross([]string{"normal", "chunked", "sw"}, []string{"-pipelined", "-bounce", "-prefetch 1", "-policy lru"})
	cross([]string{"serve", "saturate", "fleet"}, []string{"-scenario x.json", "-as fleet", "-match metrics",
		"-tolerance 0.1", "-format json", "-junit j.xml"})
	for _, r := range rows {
		t.Run(r.args, func(t *testing.T) {
			_, err := parse(strings.Fields(r.args))
			hint := ""
			if r.reject != "" {
				hint = "does not support -" + r.reject
			}
			checkHint(t, err, hint)
		})
	}
}

// TestParseValueChecks sweeps the value checks parse runs before any
// simulation work: input-reachable panics and deep failures (empty IDEA
// inputs, negative sizes and prefetch depths) must come back as one-line
// usage errors.
func TestParseValueChecks(t *testing.T) {
	cases := []struct {
		args string
		hint string // "" = accepted
	}{
		{"-size 0", "-size must be positive"},
		{"-mode chunked -size -8", "-size must be positive"},
		{"-mode multi -size -16", "-size must be positive"},
		{"-mode sw -app vecadd -size -4", "-size must be positive"},
		{"-size 4", "no whole 8-byte IDEA block"},
		{"-mode normal -size 7", "no whole 8-byte IDEA block"},
		{"-mode multi -size 4", "no whole 8-byte IDEA block"},
		{"-size 8", ""},
		{"-mode multi -size 8", ""},
		{"-app adpcm -size 1", ""},
		{"-app vecadd -size 3", ""},
		{"-prefetch -1", "-prefetch must be non-negative"},
		{"-prefetch 2", ""},
		{"-mode serve -budget 0", "budget factor must be positive"},
		{"-mode record -as serve -scenario r.json -budget -1", "budget factor must be positive"},
		{"-mode saturate -budget 0", ""},
		{"-mode saturate -jobs 0", "-jobs must be positive"},
		{"-mode fleet -boards 0", "-boards must be positive"},
		{"-mode record -as fleet -scenario r.json -boards -1", "-boards must be positive"},
		{"-mode record -as saturate -scenario r.json -ramp", "a scenario pins exactly one"},
		{"-mode record -as bench -scenario r.json", "unknown -as"},
		{"-mode record -as serve", "-scenario must name the output file"},
		{"-mode replay", "-scenario must name a scenario file or directory"},
		{"-mode saturate -ramp -metrics-out m.prom", "-ramp sweeps many"},
		{"-mode replay -scenario run.json -sample-ps 1e9", "-sample-ps needs -metrics-out"},
		{"-mode bench", "unknown -mode"},
		{"-mode serve stray", "unexpected argument"},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			_, err := parse(strings.Fields(c.args))
			checkHint(t, err, c.hint)
		})
	}
}

// TestModeTableIntegrity checks the mode table against the FlagSet: every
// flag is read by some mode, every row names only real flags, the -mode
// help lists exactly the table's modes, and the flag surface (names and
// defaults) is the pinned one.
func TestModeTableIntegrity(t *testing.T) {
	fs := newFlagSet(&options{})
	read := map[string]bool{"mode": true}
	var names []string
	for _, m := range modes {
		names = append(names, m.name)
		fields := strings.Fields(m.flags)
		if m.tele {
			fields = append(fields, strings.Fields(teleFlags)...)
		}
		for _, f := range fields {
			if fs.Lookup(f) == nil {
				t.Errorf("mode %s lists -%s, which is not a flag", m.name, f)
			}
			read[f] = true
		}
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) {
		got = append(got, f.Name+"="+f.DefValue)
		if !read[f.Name] {
			t.Errorf("flag -%s is read by no mode", f.Name)
		}
	})
	if usage, want := fs.Lookup("mode").Usage, "execution mode: "+strings.Join(names, " | "); usage != want {
		t.Errorf("-mode usage = %q, want %q", usage, want)
	}
	want := strings.Fields(`admit=off app=idea arb=static arrival=poisson as=serve board=EPXA1 boards=4
		bounce=false budget=1 bw=0 dispatch=least-loaded format=text gap=0.15 jobs=24 junit= match=
		metrics-out= mode=vim pipelined=false policy=fifo prefetch=0 ramp=false rps=800 sample-ps=0
		scenario= seed=1 size=16384 slots=2 split=0 stage=false tolerance=0 trace-out= vcd=`)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}

// TestRecordCorpusRoundTrip re-records every committed corpus scenario from
// the command line stored in its description, through the same parse and
// runner path main uses, and requires the new file to be byte-identical to
// the committed one.
func TestRecordCorpusRoundTrip(t *testing.T) {
	files, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil || len(files) < 8 {
		t.Fatalf("corpus: %d scenarios (err %v), want at least 8", len(files), err)
	}
	quiet(t)
	dir := t.TempDir()
	for _, file := range files {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var sc struct{ Description string }
		if err := json.Unmarshal(want, &sc); err != nil {
			t.Fatal(err)
		}
		args := strings.Fields(sc.Description)
		if len(args) == 0 || args[0] != "vimsim" {
			t.Fatalf("%s: description %q is not a vimsim command line", file, sc.Description)
		}
		args = args[1:]
		out := filepath.Join(dir, filepath.Base(file))
		for i := range args[:len(args)-1] {
			if args[i] == "-scenario" {
				args[i+1] = out
			}
		}
		run, err := parse(args)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if err := run(); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: re-recorded scenario differs from the committed file", filepath.Base(file))
		}
	}
}

// TestDocCommandsParse requires every vimsim command line the repository
// documents — README fenced blocks, this package's comment and the CI
// workflow — to be accepted by parse. A CI line of the form
// `if go run ./cmd/vimsim ...; then` is a negative check and must be
// rejected instead.
func TestDocCommandsParse(t *testing.T) {
	tmp := t.TempDir()
	shellVar := regexp.MustCompile(`\$\w+`)
	check := func(source, line string, wantOK bool) {
		t.Helper()
		var args []string
		for _, a := range strings.Fields(line) {
			a = shellVar.ReplaceAllString(strings.Trim(a, `"`), "1")
			if strings.HasPrefix(a, "/tmp/") { // CI scratch paths may not exist here
				a = filepath.Join(tmp, filepath.Base(a))
			}
			args = append(args, a)
		}
		_, err := parse(args)
		if wantOK && err != nil {
			t.Errorf("%s: vimsim %s: %v", source, line, err)
		}
		if !wantOK && err == nil {
			t.Errorf("%s: vimsim %s: accepted, want a rejection", source, line)
		}
	}

	for _, c := range []struct {
		path string
		min  int
	}{{"../../README.md", 10}, {"main.go", 20}, {"../../.github/workflows/ci.yml", 5}} {
		cmds := docCommands(t, c.path)
		if len(cmds) < c.min {
			t.Errorf("%s: found %d vimsim command lines, want at least %d", c.path, len(cmds), c.min)
		}
		for _, cmd := range cmds {
			negative := strings.HasPrefix(cmd, "if ")
			check(c.path, cmd[strings.Index(cmd, "vimsim ")+len("vimsim "):], !negative)
		}
	}
}

// docCommands returns the vimsim command lines in path — a Markdown file's
// fenced blocks, a Go file's package comment, or a whole workflow file —
// with `\` continuations joined, `# …` comments stripped, everything from
// a `;` or a `>` redirection on dropped, and `go run ./cmd/vimsim`
// shortened to `vimsim`.
func docCommands(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if strings.HasSuffix(path, ".go") {
		text = text[:strings.Index(text, "\npackage ")]
	}
	fenced := strings.HasSuffix(path, ".md")
	var cmds []string
	in, pending := false, ""
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "```") {
			in = !in
			continue
		}
		if fenced && !in {
			continue
		}
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(pending + " " + strings.TrimSpace(strings.TrimPrefix(line, "//")))
		pending = ""
		if strings.HasSuffix(line, `\`) {
			pending = strings.TrimSuffix(line, `\`)
			continue
		}
		if i := strings.IndexAny(line, ";>"); i >= 0 {
			line = line[:i]
		}
		line = strings.Replace(line, "go run ./cmd/vimsim", "vimsim", 1)
		if strings.HasPrefix(line, "vimsim ") || strings.HasPrefix(line, "if vimsim ") {
			cmds = append(cmds, line)
		}
	}
	return cmds
}

// quiet discards the runners' stdout for the rest of the test.
func quiet(t *testing.T) {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = stdout
		devnull.Close()
	})
}

// TestReadmeModeTable keeps the README's flags-per-mode table equal to the
// mode table: every mode appears once, with exactly its row's flags and
// telemetry column.
func TestReadmeModeTable(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	code := regexp.MustCompile("`([^`]+)`")
	seen := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		cols := strings.Split(line, "|")
		if len(cols) != 5 || !strings.HasPrefix(strings.TrimSpace(cols[1]), "`") {
			continue
		}
		flags := map[string]bool{}
		for _, m := range code.FindAllStringSubmatch(cols[2], -1) {
			flags[strings.TrimPrefix(m[1], "-")] = true
		}
		tele := strings.TrimSpace(cols[3]) == "yes"
		for _, m := range code.FindAllStringSubmatch(cols[1], -1) {
			row, ok := lookupMode(m[1])
			if !ok || seen[m[1]] {
				t.Errorf("README mode table: unknown or repeated mode %q", m[1])
				continue
			}
			seen[m[1]] = true
			want := map[string]bool{}
			for _, f := range strings.Fields(row.flags) {
				want[f] = true
			}
			if len(flags) != len(want) || tele != row.tele {
				t.Errorf("README mode table: %s reads %v (telemetry %v), want %q (telemetry %v)",
					m[1], flags, tele, row.flags, row.tele)
			}
			for f := range flags {
				if !want[f] {
					t.Errorf("README mode table: %s lists -%s, which its row does not", m[1], f)
				}
			}
		}
	}
	if len(seen) != len(modes) {
		t.Errorf("README mode table covers %d modes, want %d (%s)", len(seen), len(modes), modeNames(", "))
	}
}
