package exper

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"xartrek/internal/tenancy"
	"xartrek/internal/workloads"
)

// LoadTrace parses a recorded request log into the arrival-offset form
// ServingConfig.Trace and CellSpec.TraceFile consume, so real
// production traces replay through the same campaign harness as
// synthetic load.
//
// Format: one request per line; blank lines and lines starting with
// '#' are skipped. On CSV lines only the first field is read, so raw
// "timestamp,endpoint,status" logs work unmodified. Each timestamp is
// either a number — an offset in seconds from the start of the trace —
// or an RFC 3339 time (2021-12-06T10:00:00.25Z), but one log must use
// one format throughout — numeric and RFC 3339 lines anchor to
// independent origins, so mixing them would fabricate inter-arrival
// structure and is rejected. Absolute timestamps are anchored to the
// earliest one, which becomes offset zero; a log whose numeric
// timestamps all exceed ~3 years is taken as epoch-seconds-stamped
// and anchored the same way, so raw Unix-time logs replay instead of
// being silently dropped past the horizon.
//
// rescale multiplies the trace's arrival rate: 2 replays it twice as
// fast, 0.5 at half speed; 0 and 1 leave it unchanged. The result is
// sorted ascending.
func LoadTrace(r io.Reader, rescale float64) ([]time.Duration, error) {
	if rescale < 0 {
		return nil, fmt.Errorf("exper: trace: negative rescale %v", rescale)
	}
	if rescale == 0 {
		rescale = 1
	}
	var seconds []float64
	var absolutes []time.Time
	// First line of each format, for the mixed-format diagnostic.
	var firstNumLine, firstAbsLine int
	var firstNumField, firstAbsField string
	sc := bufio.NewScanner(r)
	// Real request logs carry arbitrarily long payload fields after the
	// timestamp; the scanner's default 64 KiB token limit would reject
	// the whole log over one long line.
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		field := line
		if i := strings.IndexByte(field, ','); i >= 0 {
			field = field[:i]
		}
		field = strings.TrimSpace(field)
		// ParseFloat also accepts "NaN"/"Inf"; those are malformed
		// timestamps, not offsets, and fall through to the parse error.
		if secs, err := strconv.ParseFloat(field, 64); err == nil && !math.IsNaN(secs) && !math.IsInf(secs, 0) {
			if secs < 0 {
				return nil, fmt.Errorf("exper: trace line %d: negative offset %v", lineno, secs)
			}
			if len(seconds) == 0 {
				firstNumLine, firstNumField = lineno, field
			}
			seconds = append(seconds, secs)
			continue
		}
		t, err := time.Parse(time.RFC3339Nano, field)
		if err != nil {
			return nil, fmt.Errorf("exper: trace line %d: %q is neither a seconds offset nor an RFC 3339 timestamp", lineno, field)
		}
		if len(absolutes) == 0 {
			firstAbsLine, firstAbsField = lineno, field
		}
		absolutes = append(absolutes, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("exper: trace near line %d: %w", lineno+1, err)
	}
	if len(seconds) > 0 && len(absolutes) > 0 {
		return nil, fmt.Errorf(
			"exper: trace mixes numeric and RFC 3339 timestamps (%d and %d lines, e.g. %q on line %d vs %q on line %d); one log must use one format",
			len(seconds), len(absolutes), firstNumField, firstNumLine, firstAbsField, firstAbsLine)
	}
	// Numeric timestamps that all sit far from zero are epoch seconds,
	// not offsets: anchor them to the earliest entry like RFC 3339
	// absolutes (10^8 s ≈ 3.2 years — no replayable offset is that
	// large, no epoch-stamped log since 1973 is below it). Anchoring
	// happens in seconds, before the nanosecond conversion, so epoch
	// magnitudes do not cost sub-second float precision.
	const epochCutoff = 1e8
	var offsets []time.Duration
	if len(seconds) > 0 {
		min := seconds[0]
		for _, s := range seconds[1:] {
			if s < min {
				min = s
			}
		}
		if min < epochCutoff {
			min = 0
		}
		for _, s := range seconds {
			offsets = append(offsets, time.Duration((s-min)*float64(time.Second)))
		}
	}
	if len(absolutes) > 0 {
		origin := absolutes[0]
		for _, t := range absolutes[1:] {
			if t.Before(origin) {
				origin = t
			}
		}
		for _, t := range absolutes {
			offsets = append(offsets, t.Sub(origin))
		}
	}
	if rescale != 1 {
		for i, off := range offsets {
			offsets[i] = time.Duration(float64(off) / rescale)
		}
	}
	slices.Sort(offsets)
	return offsets, nil
}

// timeOrdered returns trace sorted ascending, cloning it only when it
// is not already sorted so shared (memoised) traces are never
// mutated. Equal offsets are indistinguishable, so the sort needs no
// stability.
func timeOrdered(trace []time.Duration) []time.Duration {
	if slices.IsSorted(trace) {
		return trace
	}
	trace = slices.Clone(trace)
	slices.Sort(trace)
	return trace
}

// arrivalGen yields one run's arrivals one at a time in time order;
// ok=false at end of stream. tenancy.Arrival.App indexes the cohort's
// application table (arrivalStream.apps).
type arrivalGen interface {
	Next() (tenancy.Arrival, bool)
}

// maxRatePerSec is the highest arrival rate the engines accept (Poisson
// rate, MMPP state rate, a cohort's peak rate). Arrival instants are
// whole nanoseconds, so above 1e9/s most gaps truncate to zero: the
// stream stops advancing the clock and one same-instant batch grows
// without bound.
const maxRatePerSec = 1e9

// poissonGen draws the anonymous Poisson stream: per arrival a gap,
// then an application from the shared pool. The arrival past the
// horizon consumes only its gap.
type poissonGen struct {
	rng     *rand.Rand
	rate    float64
	horizon time.Duration
	pool    int
	t       time.Duration
}

func (g *poissonGen) Next() (tenancy.Arrival, bool) {
	gap := g.rng.ExpFloat64() / g.rate * float64(time.Second)
	// Compare before converting: a gap past the horizon (a tiny rate)
	// would overflow time.Duration.
	if !(gap < float64(g.horizon-g.t)) {
		return tenancy.Arrival{}, false
	}
	g.t += time.Duration(gap)
	return tenancy.Arrival{At: g.t, App: g.rng.Intn(g.pool)}, true
}

// traceGen walks a time-ordered trace up to the horizon, drawing each
// arrival's application from the shared pool as it goes.
type traceGen struct {
	rng     *rand.Rand
	trace   []time.Duration
	horizon time.Duration
	pool    int
}

func (g *traceGen) Next() (tenancy.Arrival, bool) {
	if len(g.trace) == 0 || g.trace[0] >= g.horizon {
		return tenancy.Arrival{}, false
	}
	at := g.trace[0]
	g.trace = g.trace[1:]
	return tenancy.Arrival{At: at, App: g.rng.Intn(g.pool)}, true
}

// arrivalStream is the serving engine's one arrival path. It pulls a
// generator one arrival ahead of the simulation clock, keeps a shard's
// share of the round-robin deal (arrival index idx is kept when
// idx%stride == phase; stride 0 keeps all), folds same-instant
// arrivals into one batch as simtime.Feed requires, and counts what
// each cohort offered. Every generator is lazy, so a million-request
// cell holds O(cohorts) arrival state, and every shard walks the whole
// stream, so the shard fleet replays exactly the arrivals the
// unsharded run injects.
type arrivalStream struct {
	gen arrivalGen
	// apps[c] is the application table cohort c's Arrival.App indexes.
	apps          [][]*workloads.App
	stride, phase int
	idx           int
	ahead         tenancy.Arrival
	more          bool
	// offered counts the arrivals yielded so far, per cohort.
	offered []int
	batch   []tenancy.Arrival
}

// newArrivalStream builds a run's stream: the workload's merged cohort
// stream when ten is non-nil, otherwise one anonymous cohort drawing
// from pool — replaying cfg.Trace (which must be time-ordered) when
// set, Poisson at cfg.RatePerSec when not — dealt by the config's
// shardStride/shardPhase.
func newArrivalStream(cfg ServingConfig, pool []*workloads.App, ten *tenantRun) (*arrivalStream, error) {
	s := &arrivalStream{stride: cfg.shardStride, phase: cfg.shardPhase}
	switch {
	case ten != nil:
		s.gen, s.apps = ten.stream, ten.apps
	case cfg.Duration <= 0:
		return nil, fmt.Errorf("exper: serving %q: non-positive duration %v", cfg.Name, cfg.Duration)
	case len(pool) == 0:
		return nil, fmt.Errorf("exper: serving %q: empty application pool", cfg.Name)
	case len(cfg.Trace) > 0:
		if cfg.Trace[0] < 0 {
			return nil, fmt.Errorf("exper: serving %q: negative trace offset %v", cfg.Name, cfg.Trace[0])
		}
		s.gen = &traceGen{rng: rand.New(rand.NewSource(cfg.Seed)), trace: cfg.Trace, horizon: cfg.Duration, pool: len(pool)}
	case cfg.RatePerSec <= 0:
		return nil, fmt.Errorf("exper: serving %q: non-positive rate %v", cfg.Name, cfg.RatePerSec)
	case cfg.RatePerSec > maxRatePerSec:
		return nil, fmt.Errorf("exper: serving %q: rate %v exceeds %g/s, the most the 1 ns clock resolves", cfg.Name, cfg.RatePerSec, maxRatePerSec)
	default:
		s.gen = &poissonGen{rng: rand.New(rand.NewSource(cfg.Seed)), rate: cfg.RatePerSec, horizon: cfg.Duration, pool: len(pool)}
	}
	if s.apps == nil {
		s.apps = [][]*workloads.App{pool}
	}
	s.offered = make([]int, len(s.apps))
	s.ahead, s.more = s.pull()
	return s, nil
}

// pull returns the next arrival of this shard's share of the stream.
func (s *arrivalStream) pull() (tenancy.Arrival, bool) {
	for {
		a, ok := s.gen.Next()
		if !ok {
			return a, false
		}
		idx := s.idx
		s.idx++
		if s.stride == 0 || idx%s.stride == s.phase {
			return a, true
		}
	}
}

// next returns the next arrival instant and every arrival at it (the
// slice is valid until the following call); ok=false at end of stream.
func (s *arrivalStream) next() (time.Duration, []tenancy.Arrival, bool) {
	if !s.more {
		return 0, nil, false
	}
	at := s.ahead.At
	s.batch = s.batch[:0]
	for s.more && s.ahead.At == at {
		s.batch = append(s.batch, s.ahead)
		s.offered[s.ahead.Cohort]++
		s.ahead, s.more = s.pull()
	}
	return at, s.batch, true
}

// total is the number of arrivals yielded so far.
func (s *arrivalStream) total() int {
	n := 0
	for _, c := range s.offered {
		n += c
	}
	return n
}
