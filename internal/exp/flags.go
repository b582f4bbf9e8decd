package exp

import (
	"errors"
	"flag"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// The command-line flags that two or more commands share are defined here
// and nowhere else. Each binds straight into the caller's base
// configuration (or runner field), and its default is the value already
// there, so every command keeps its own defaults. A command calls
// base.Validate() once, right after parsing.

// HorizonFlags binds -cycles and -warmup to cfg's measured and warmup
// horizons.
func HorizonFlags(fs *flag.FlagSet, cfg *core.Config) {
	fs.Int64Var(&cfg.MeasureCycles, "cycles", cfg.MeasureCycles, "measured NoC cycles per run")
	fs.Int64Var(&cfg.WarmupCycles, "warmup", cfg.WarmupCycles, "warmup NoC cycles per run")
}

// SeedFlag binds -seed to cfg.Seed.
func SeedFlag(fs *flag.FlagSet, cfg *core.Config) {
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
}

// SchemeFlag binds -scheme to cfg.Scheme, parsed by core.ParseScheme.
func SchemeFlag(fs *flag.FlagSet, cfg *core.Config) {
	names := make([]string, core.NumSchemes)
	for i := range names {
		names[i] = core.Scheme(i).String()
	}
	fs.Var(schemeValue{&cfg.Scheme}, "scheme", "evaluated `scheme`: "+strings.Join(names, ", "))
}

// ShardsFlag binds -shards to cfg.Shards. A negative count fails as the
// flag parses, so the error names the flag before any run starts.
func ShardsFlag(fs *flag.FlagSet, cfg *core.Config) {
	fs.Var(shardsValue{&cfg.Shards}, "shards", "intra-run parallelism: step the mesh across `n` worker shards per simulation (0/1 = serial; results are byte-identical either way)")
}

// FaultFlags binds -corrupt-prob and -link-death to cfg.Fault. A non-zero
// probability also enables fault injection, so base.Validate() range-checks
// it.
func FaultFlags(fs *flag.FlagSet, cfg *core.Config) {
	fs.Var(probValue{&cfg.Fault.CorruptProb, &cfg.Fault.Enabled}, "corrupt-prob",
		"per-cycle `probability` of a flit-corruption burst; > 0 enables fault injection and the NoC recovery layer (CRC + NACK retransmission)")
	fs.Var(probValue{&cfg.Fault.LinkDeathProb, &cfg.Fault.Enabled}, "link-death",
		"per-cycle `probability` of a permanent link death; > 0 enables fault injection with fault-adaptive routing around dead links")
}

// JournalFlag binds -journal, the JSONL result journal's path.
func JournalFlag(fs *flag.FlagSet, path *string) {
	fs.StringVar(path, "journal", *path, "JSONL result journal; an interrupted or killed run resumes from it without recomputing finished jobs")
}

// TimeoutFlag binds -timeout, the per-run wall-time limit.
func TimeoutFlag(fs *flag.FlagSet, limit *time.Duration) {
	fs.DurationVar(limit, "timeout", *limit, "per-run wall-time limit (0 = unlimited)")
}

// ParseFlags parses args into fs under the precedence rule every command
// follows: preset, applied after parsing, overrides the flag defaults, and
// every explicitly passed flag is then set again over the preset.
func ParseFlags(fs *flag.FlagSet, args []string, preset func() error) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	var explicit [][2]string
	fs.Visit(func(f *flag.Flag) { explicit = append(explicit, [2]string{f.Name, f.Value.String()}) })
	if err := preset(); err != nil {
		return err
	}
	for _, kv := range explicit {
		if err := fs.Set(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}

// schemeValue adapts a core.Scheme to flag.Value without giving the type
// text methods of its own (core.Config's JSON encoding hashes into job keys).
type schemeValue struct{ p *core.Scheme }

func (v schemeValue) String() string {
	if v.p == nil {
		return ""
	}
	return v.p.String()
}

func (v schemeValue) Set(s string) error {
	sch, err := core.ParseScheme(s)
	if err != nil {
		return err
	}
	*v.p = sch
	return nil
}

type shardsValue struct{ p *int }

func (v shardsValue) String() string {
	if v.p == nil {
		return "0"
	}
	return strconv.Itoa(*v.p)
}

func (v shardsValue) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	if n < 0 {
		return errors.New("must be >= 0")
	}
	*v.p = n
	return nil
}

type probValue struct {
	p       *float64
	enabled *bool
}

func (v probValue) String() string {
	if v.p == nil {
		return "0"
	}
	return strconv.FormatFloat(*v.p, 'g', -1, 64)
}

func (v probValue) Set(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*v.p = f
	if f != 0 {
		*v.enabled = true
	}
	return nil
}
