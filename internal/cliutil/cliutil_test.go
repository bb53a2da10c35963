package cliutil

import (
	"flag"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ring"
)

func TestValidateProbsAccepts(t *testing.T) {
	if err := ValidateProbs(nil); err != nil {
		t.Fatalf("nil map: %v", err)
	}
	if err := ValidateProbs(map[string]float64{
		"-a": 0, "-b": 1, "-c": 0.5,
	}); err != nil {
		t.Fatalf("boundary values rejected: %v", err)
	}
}

func TestValidateProbsRejectsConsolidated(t *testing.T) {
	err := ValidateProbs(map[string]float64{
		"-fault-crash":     1.5,
		"-fault-transform": -0.1,
		"-fault-load":      math.NaN(),
		"-fault-outage":    math.Inf(1),
		"-fault-hang":      0.3, // fine, must not appear
	})
	if err == nil {
		t.Fatal("bad probabilities accepted")
	}
	msg := err.Error()
	for _, want := range []string{"-fault-crash=1.5", "-fault-transform=-0.1", "-fault-load=NaN", "-fault-outage=+Inf"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if strings.Contains(msg, "-fault-hang") {
		t.Errorf("error %q names a valid flag", msg)
	}
	// Sorted flag order keeps the message deterministic.
	if idx := strings.Index(msg, "-fault-crash"); idx < 0 || idx > strings.Index(msg, "-fault-load") {
		t.Errorf("error %q not sorted by flag name", msg)
	}
}

func TestParseRates(t *testing.T) {
	got, err := ParseRates("0, 0.25,1,,  0.5 ,")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 0.25, 1, 0.5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseRates = %v, want %v", got, want)
	}
	empty, err := ParseRates("")
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty input = %v, %v", empty, err)
	}
}

func TestParseRatesRejectsConsolidated(t *testing.T) {
	_, err := ParseRates("0.5,woof,-1,NaN,2,0.1")
	if err == nil {
		t.Fatal("bad rate list accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		`"woof" (not a number)`,
		`"-1" (outside [0,1])`,
		`"NaN" (not finite)`,
		`"2" (outside [0,1])`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if strings.Contains(msg, `"0.5"`) || strings.Contains(msg, `"0.1"`) {
		t.Errorf("error %q names a valid entry", msg)
	}
}

func controlPlaneFlagsFor(t *testing.T, args ...string) *ControlPlaneFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterControlPlaneFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestControlPlaneFlagsSingleGateway(t *testing.T) {
	c := controlPlaneFlagsFor(t)
	if c.Enabled() {
		t.Error("empty -peers reported enabled")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	if got := c.RingVNodes(); got != ring.DefaultVNodes {
		t.Errorf("RingVNodes() = %d, want default %d", got, ring.DefaultVNodes)
	}
}

func TestControlPlaneFlagsPeerSet(t *testing.T) {
	c := controlPlaneFlagsFor(t,
		"-self", "gw-1",
		"-peers", "gw-0=http://a:8080, gw-1=http://b:8080 ,gw-2=http://c:8080",
		"-ring-vnodes", "64")
	if !c.Enabled() {
		t.Fatal("peer set not reported enabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("valid peer set rejected: %v", err)
	}
	peers, err := c.PeerSet()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range peers {
		ids = append(ids, p.ID)
	}
	if want := []string{"gw-0", "gw-1", "gw-2"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("peer ids = %v, want %v", ids, want)
	}
	if peers[1].URL.Host != "b:8080" {
		t.Errorf("gw-1 URL host = %q, want b:8080", peers[1].URL.Host)
	}
	if got := c.RingVNodes(); got != 64 {
		t.Errorf("RingVNodes() = %d, want 64", got)
	}
}

func TestControlPlaneFlagsRejectsConsolidated(t *testing.T) {
	c := controlPlaneFlagsFor(t,
		"-self", "gw-9",
		"-peers", "gw-0=http://a:8080,broken,gw-0=http://b:8080,gw-2=not-a-url",
		"-ring-vnodes", "-1")
	err := c.Validate()
	if err == nil {
		t.Fatal("bad control-plane flags accepted")
	}
	for _, want := range []string{
		`"broken" (want id=url)`,
		`duplicate id "gw-0"`,
		`"gw-2=not-a-url" (URL must be absolute)`,
		"-ring-vnodes=-1",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	// -self is only checked once the entries themselves parse.
	c2 := controlPlaneFlagsFor(t, "-self", "gw-9", "-peers", "gw-0=http://a:8080")
	if err := c2.Validate(); err == nil || !strings.Contains(err.Error(), `-self="gw-9" (not in -peers)`) {
		t.Errorf("self outside peer set not rejected: %v", err)
	}
}

// TestFlagGroupsValidate runs each flag group's Validate over one valid row
// and one row per flag it rejects: the row's error must name that flag, and
// the valid row must pass.
func TestFlagGroupsValidate(t *testing.T) {
	groups := []struct {
		name     string
		validate func(fs *flag.FlagSet) func() error
		valid    []string
		bad      [][2]string // flag, bad value
	}{
		{
			name: "fault",
			validate: func(fs *flag.FlagSet) func() error {
				return RegisterFaultFlags(fs, true).Validate
			},
			valid: []string{"-fault-crash", "0.2", "-fault-outage", "1", "-fault-checkpoint", "0"},
			bad: [][2]string{
				{"-fault-transform", "1.5"}, {"-fault-load", "-0.1"}, {"-fault-crash", "2"},
				{"-fault-outage", "NaN"}, {"-fault-hang", "+Inf"}, {"-fault-slow", "-1"},
				{"-fault-flaky", "1.01"}, {"-fault-bandwidth", "3"}, {"-fault-fanout-crash", "-0.5"},
				{"-fault-corrupt", "7"}, {"-fault-checkpoint", "1.2"},
			},
		},
		{
			name: "resilience",
			validate: func(fs *flag.FlagSet) func() error {
				return RegisterResilienceFlags(fs).Validate
			},
			valid: []string{"-health", "-health-quarantine", "60s", "-health-drain", "0s",
				"-retry-backoff", "10ms", "-hedge-percentile", "100"},
			bad: [][2]string{
				{"-hedge-percentile", "101"}, {"-hedge-percentile", "-1"}, {"-hedge-percentile", "NaN"},
				{"-health-quarantine", "-1s"}, {"-health-drain", "-5ms"}, {"-retry-backoff", "-1ns"},
			},
		},
		{
			name: "fanout",
			validate: func(fs *flag.FlagSet) func() error {
				return RegisterFanoutFlags(fs).Validate
			},
			valid: []string{"-fanout", "-fanout-bandwidth", "2", "-fanout-threshold", "0", "-fanout-max", "16"},
			bad: [][2]string{
				{"-fanout-bandwidth", "-1"}, {"-fanout-threshold", "-4"}, {"-fanout-max", "-16"},
			},
		},
	}
	parse := func(t *testing.T, validate func(*flag.FlagSet) func() error, args ...string) error {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		v := validate(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		return v()
	}
	for _, g := range groups {
		t.Run(g.name, func(t *testing.T) {
			if err := parse(t, g.validate, g.valid...); err != nil {
				t.Errorf("valid flags %v rejected: %v", g.valid, err)
			}
			for _, b := range g.bad {
				err := parse(t, g.validate, b[0]+"="+b[1])
				if err == nil {
					t.Errorf("%s=%s accepted", b[0], b[1])
				} else if !strings.Contains(err.Error(), b[0]+"=") {
					t.Errorf("%s=%s: error %q does not name the flag", b[0], b[1], err)
				}
			}
		})
	}
}
