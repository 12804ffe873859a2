package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"hybrimoe/internal/stats"
)

// TestStreamArrivalStampingDeterministic pins the open-loop stream
// contract: arrivals strictly increase, the same seed reproduces the
// same stamps, and attaching a process leaves the prompt/decode draws
// byte-identical to the unstamped stream (the arrival RNG is its own
// stream).
func TestStreamArrivalStampingDeterministic(t *testing.T) {
	plain := NewStream(21, AllDatasets()...).NextN(40)
	a := NewStream(21, AllDatasets()...).WithArrivals(Poisson(8)).NextN(40)
	b := NewStream(21, AllDatasets()...).WithArrivals(Poisson(8)).NextN(40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give identical arrival-stamped streams")
	}
	prev := 0.0
	for i, r := range a {
		if r.Arrival <= prev {
			t.Fatalf("arrivals not increasing: request %d at %v after %v", i, r.Arrival, prev)
		}
		prev = r.Arrival
		stripped := r
		stripped.Arrival = 0
		if stripped != plain[i] {
			t.Fatalf("arrival stamping perturbed request content: %+v vs %+v", r, plain[i])
		}
		if plain[i].Arrival != 0 {
			t.Fatalf("unstamped stream carries an arrival: %+v", plain[i])
		}
	}
}

func TestPoissonGapMean(t *testing.T) {
	rng := stats.NewRNG(5)
	p := Poisson(4)
	if p.Name() != "poisson" {
		t.Fatalf("name %q", p.Name())
	}
	var acc stats.Running
	for i := 0; i < 8000; i++ {
		g := p.Gap(rng)
		if g <= 0 {
			t.Fatalf("non-positive gap %v", g)
		}
		acc.Add(g)
	}
	if want := 0.25; math.Abs(acc.Mean()-want) > want*0.1 {
		t.Fatalf("poisson(4) mean gap %v, want ≈%v", acc.Mean(), want)
	}
}

func TestUniformGapExact(t *testing.T) {
	u := Uniform(5)
	if u.Name() != "uniform" {
		t.Fatalf("name %q", u.Name())
	}
	rng := stats.NewRNG(6)
	for i := 0; i < 10; i++ {
		if g := u.Gap(rng); g != 0.2 {
			t.Fatalf("uniform(5) gap %v, want exactly 0.2", g)
		}
	}
}

// TestBurstyRateAndBurstiness checks the MMPP's two promises: the
// long-run rate lands near (onRate·meanOn + offRate·meanOff) /
// (meanOn + meanOff), and the gaps are burstier than Poisson at the
// same mean — the squared coefficient of variation exceeds 1.
func TestBurstyRateAndBurstiness(t *testing.T) {
	rng := stats.NewRNG(7)
	// On 16 req/s half the time, silent the other half: mean 8 req/s.
	p := Bursty(16, 0, 0.5, 0.5)
	if p.Name() != "bursty" {
		t.Fatalf("name %q", p.Name())
	}
	var acc stats.Running
	for i := 0; i < 20000; i++ {
		g := p.Gap(rng)
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		acc.Add(g)
	}
	if want := 1.0 / 8; math.Abs(acc.Mean()-want) > want*0.15 {
		t.Fatalf("bursty mean gap %v, want ≈%v", acc.Mean(), want)
	}
	cv2 := acc.Variance() / (acc.Mean() * acc.Mean())
	if cv2 <= 1.2 {
		t.Fatalf("bursty gaps not bursty: CV² %v, want > 1.2 (Poisson is 1)", cv2)
	}
}

func TestArrivalConstructorsPanicOnBadParams(t *testing.T) {
	cases := map[string]func(){
		"poisson zero rate":    func() { Poisson(0) },
		"poisson Inf rate":     func() { Poisson(math.Inf(1)) },
		"uniform negative":     func() { Uniform(-1) },
		"uniform Inf rate":     func() { Uniform(math.Inf(1)) },
		"bursty zero on-rate":  func() { Bursty(0, 1, 1, 1) },
		"bursty Inf on-rate":   func() { Bursty(math.Inf(1), 0, 1, 1) },
		"bursty neg off-rate":  func() { Bursty(1, -1, 1, 1) },
		"bursty Inf off-rate":  func() { Bursty(1, math.Inf(1), 1, 1) },
		"bursty NaN off-rate":  func() { Bursty(1, math.NaN(), 1, 1) },
		"bursty zero on-mean":  func() { Bursty(1, 0, 0, 1) },
		"bursty Inf on-mean":   func() { Bursty(1, 0, math.Inf(1), 1) },
		"bursty zero off-mean": func() { Bursty(1, 0, 1, 0) },
		"bursty Inf off-mean":  func() { Bursty(1, 0, 1, math.Inf(1)) },
		"bursty NaN off-mean":  func() { Bursty(1, 0, 1, math.NaN()) },
		"nil process attached": func() { NewStream(1, MTBench()).WithArrivals(nil) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewArrivalsResolvesNames(t *testing.T) {
	for _, name := range []string{"poisson", "uniform", "bursty"} {
		p, err := NewArrivals(name, 4)
		if err != nil {
			t.Fatalf("NewArrivals(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("NewArrivals(%q) built %q", name, p.Name())
		}
	}
	if _, err := NewArrivals("psychic", 4); err == nil || !strings.Contains(err.Error(), "psychic") {
		t.Fatalf("unknown process error %v should name the offender", err)
	}
	// Rates whose derived values overflow: +Inf itself, 5e-324 (1/rate
	// and 4/rate overflow) and 1e308 (2×rate overflows).
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), 5e-324, 1e308} {
		for _, name := range []string{"poisson", "uniform", "bursty"} {
			if _, err := NewArrivals(name, rate); err == nil {
				t.Errorf("NewArrivals(%q, %v) succeeded, want an error", name, rate)
			}
		}
	}
}

// TestNewArrivalsBurstyMatchesRate pins the CLI convenience mapping:
// the derived on/off process still delivers the requested long-run
// rate.
func TestNewArrivalsBurstyMatchesRate(t *testing.T) {
	p, err := NewArrivals("bursty", 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(8)
	var acc stats.Running
	for i := 0; i < 20000; i++ {
		acc.Add(p.Gap(rng))
	}
	if want := 0.1; math.Abs(acc.Mean()-want) > want*0.15 {
		t.Fatalf("bursty(rate=10) mean gap %v, want ≈%v", acc.Mean(), want)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	reqs := NewStream(31, AllDatasets()...).WithArrivals(Poisson(6)).NextN(12)
	reqs[0].Priority = 2
	reqs[0].Class = "interactive"
	reqs[1].Class = "batch"
	AssignDeadlines(reqs, 0.5, 0.01)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatalf("trace round trip diverged:\n in: %+v\nout: %+v", reqs, got)
	}

	// Re-writing the parsed trace reproduces the bytes — the property
	// the CI replay job diffs on.
	var again bytes.Buffer
	if err := WriteTrace(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("trace not byte-stable:\n%s\nvs\n%s", buf.String(), again.String())
	}
}

func TestReadTraceSkipsBlanksAndComments(t *testing.T) {
	in := "# recorded 2026-07-29\n\n" +
		`{"id":3,"prompt_tokens":16,"decode_tokens":2,"arrival":1.5}` + "\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Request{{ID: 3, PromptTokens: 16, DecodeTokens: 2, Arrival: 1.5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadTrace = %+v, want %+v", got, want)
	}
}

func TestReadTraceRejectsMalformedRecords(t *testing.T) {
	cases := map[string]string{
		"bad json":         "{not json}\n",
		"zero work":        `{"id":0}` + "\n",
		"negative tokens":  `{"id":0,"prompt_tokens":-4,"decode_tokens":1}` + "\n",
		"negative arrival": `{"id":0,"prompt_tokens":4,"decode_tokens":1,"arrival":-2}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted %q", name, in)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error %v should carry the line number", name, err)
		}
	}
}
