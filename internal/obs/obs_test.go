package obs

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionFormat renders a populated registry and checks every
// line against the text exposition format (0.0.4): comment lines are
// well-formed HELP/TYPE pairs, sample lines parse, histogram buckets
// are cumulative, and the +Inf bucket equals the count.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bpms_test_total", "A counter.", "kind", "a")
	c.Inc()
	c.Add(2)
	r.Counter("bpms_test_total", "A counter.", "kind", `esc"ape\n`).Inc()
	g := r.Gauge("bpms_test_depth", "A gauge.")
	g.Set(-7)
	h := r.Histogram("bpms_test_seconds", "A histogram.", nil, "op", "x")
	for _, d := range []time.Duration{10 * time.Microsecond, 3 * time.Millisecond, 40 * time.Millisecond, 7 * time.Second} {
		h.Observe(d)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (\+Inf|-?[0-9.eE+-]+)$`)
	helpRe := regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeRe := regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP"):
			if !helpRe.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE"):
			if !typeRe.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("bad sample line: %q", line)
			}
		}
	}

	for _, want := range []string{
		`bpms_test_total{kind="a"} 3`,
		`bpms_test_total{kind="esc\"ape\\n"} 1`,
		"bpms_test_depth -7",
		`bpms_test_seconds_bucket{op="x",le="+Inf"} 4`,
		`bpms_test_seconds_count{op="x"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in exposition:\n%s", want, text)
		}
	}

	// Cumulative bucket counts must be non-decreasing and end at count.
	bucketRe := regexp.MustCompile(`bpms_test_seconds_bucket\{op="x",le="([^"]+)"\} (\d+)`)
	var prev uint64
	matches := bucketRe.FindAllStringSubmatch(text, -1)
	if len(matches) != len(DefBuckets)+1 {
		t.Fatalf("bucket lines = %d, want %d", len(matches), len(DefBuckets)+1)
	}
	for _, m := range matches {
		n, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Errorf("bucket le=%s count %d < previous %d (not cumulative)", m[1], n, prev)
		}
		prev = n
	}
	if prev != 4 {
		t.Errorf("+Inf bucket = %d, want 4", prev)
	}
}

// TestNilInstrumentsAreSafe drives every instrument method through nil
// receivers — the disabled form hot paths rely on.
func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge value != 0")
	}
	h.Observe(time.Second)
	t0 := h.Start()
	if !t0.IsZero() {
		t.Error("nil histogram Start() != zero time")
	}
	h.Since(t0)
	var m *Metrics
	m.EngineShard(0).Transition.Observe(time.Second)
	m.WAL("x").Fsync.Since(m.WAL("x").Fsync.Start())
	m.Tasks()
	m.Timers().Pending.Set(1)
	m.HTTPRoute("GET /x").Done(200, time.Millisecond)
	m.AddSampler(func() {})
}

// TestConcurrentObserveScrape hammers one histogram and one counter
// from many goroutines while scrapes run concurrently — the lock-free
// claim, checked under -race in CI.
func TestConcurrentObserveScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bpms_race_seconds", "h", nil)
	c := r.Counter("bpms_race_total", "c")
	const workers, perWorker = 8, 2000
	var observers, scraper sync.WaitGroup
	stop := make(chan struct{})
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < workers; i++ {
		observers.Add(1)
		go func(i int) {
			defer observers.Done()
			for j := 0; j < perWorker; j++ {
				h.Observe(time.Duration(i*j) * time.Microsecond)
				c.Inc()
			}
		}(i)
	}
	observers.Wait()
	close(stop)
	scraper.Wait()
	if _, _, _, count := h.Snapshot(); count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", count, workers*perWorker)
	}
}
