package experiments

import (
	"slices"
	"testing"
	"time"

	"srlb/internal/testbed"
)

// TestProgramEventInstants builds every lifecycle schedule the programs
// declare on an idle cluster at one arrival span and pins the virtual
// instant of each step: the fraction-to-time rule, the firing order and
// the number of events. No traffic runs, so the events are the only
// thing the simulator steps through.
func TestProgramEventInstants(t *testing.T) {
	const span = 7*time.Second + 123456789*time.Nanosecond
	servers := ClusterConfig{}.withDefaults().Servers
	kill, recover := time.Duration(2849382715), time.Duration(3205555555)
	type schedule struct {
		name     string
		replicas int
		events   []testbed.Event
		want     []time.Duration
	}
	cases := []schedule{
		{"churn", 1, churnEvents(max(1, servers/3), churnDrainFrac, churnGrowFrac), []time.Duration{
			2137037036, 2208271604, 2279506172, 2350740740, 4630246912, 4701481480, 4772716048, 4843950616}},
		{"failover", failoverReplicas, []testbed.Event{testbed.FailReplica(failoverKillFrac, 0)},
			[]time.Duration{3561728394}},
	}
	want := map[string][]time.Duration{
		"kill":    {kill, recover},
		"rack":    {kill, kill, kill, kill, recover},
		"rolling": {kill, recover, 4630246912, 4986419752},
	}
	for _, scenario := range resilienceScenarios {
		for _, mode := range []string{"stateless", "warm"} {
			cases = append(cases, schedule{"resilience/" + scenario + "/" + mode, resilienceReplicas,
				resilienceEvents(servers, scenario, mode, resilienceRecoverFrac), want[scenario]})
		}
	}
	for _, c := range cases {
		tb := testbed.Build(testbed.Topology{Seed: 1, Replicas: c.replicas, Events: c.events, Span: span})
		var got []time.Duration
		for tb.Sim.Step() {
			got = append(got, tb.Sim.Now())
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: instants %v, want %v", c.name, got, c.want)
		}
	}
}
