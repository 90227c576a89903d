package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"
)

// artifact is what every experiment hands its caller: a result that
// encodes as JSON and renders as text.
type artifact interface{ Render(io.Writer) error }

// sweepView renders a PCT sweep as one of the figures built on it; it
// encodes as the sweep itself.
type sweepView struct {
	*PCTSweep
	render func(*PCTSweep, io.Writer) error
}

func (v sweepView) Render(w io.Writer) error { return v.render(v.PCTSweep, w) }

// TestExperimentPins pins every experiment artifact whole: each case runs
// one experiment on a small machine, all in one session, and compares the
// SHA-256 of its encoding/json encoding followed by its Render text
// against a recorded value. A change to how an experiment lays out its
// jobs, reduces its runs to ratios and geometric means, or prints them
// shows up here by name. The table is a record, not a tunable: a digest
// changes only with a deliberate, result-changing fix.
func TestExperimentPins(t *testing.T) {
	o := testOptions("streamcluster", "radix", "matmul")
	o.Session = NewSession()
	sweep := func(pcts []int, render func(*PCTSweep, io.Writer) error) func() (artifact, error) {
		return func() (artifact, error) {
			sw, err := RunPCTSweep(o, pcts)
			if err != nil {
				return nil, err
			}
			return sweepView{sw, render}, nil
		}
	}
	cases := []struct {
		name string
		run  func() (artifact, error)
		want string
	}{
		{"fig1and2", func() (artifact, error) { return Fig1And2(o) }, "389b11053c45fad318ad62eca36a14ab44be92f90d6eaa8429be0f353292a07d"},
		{"fig8", sweep(Fig8PCTs, (*PCTSweep).RenderFig8), "ce8059fbf6a2c521a3f0cf04cea67cd3faa29a794d09d1f9eec1ba9016c540ae"},
		{"fig9", sweep(Fig8PCTs, (*PCTSweep).RenderFig9), "32af30a3e9e8a518697a2fcd923bb964b4c150b39aa18567dcd0a7baf066dc44"},
		{"fig10", sweep(Fig10PCTs, (*PCTSweep).RenderFig10), "6d6a8bcafff9333ecb2bb0419c0bd8e72f589b6ecf8cbe424d2ded7a9c1e6262"},
		{"fig11", func() (artifact, error) {
			sw, err := RunPCTSweep(o, Fig11PCTs)
			if err != nil {
				return nil, err
			}
			return sw.Fig11(), nil
		}, "a700e38a6645ce3a29447aae033d6292b2b3538fe59fff23ac1b2a51fc30a853"},
		{"fig12", func() (artifact, error) { return Fig12(o) }, "965561f9250597f39b99cb2330d8458549cfb4f0023c7ae3ead4a80bbe537078"},
		{"fig13", func() (artifact, error) { return Fig13(o) }, "4f900e4ec758c4731118a3db6c7188d7835451887242015c59c2508fc75acc9e"},
		{"fig14", func() (artifact, error) { return Fig14(o) }, "5f9b9f526ec101593bf4109367d1ced13389fce99e46153b67df7a48409ec19f"},
		{"ackwise", func() (artifact, error) { return AckwiseComparison(o, nil) }, "edd0e5d30e9ebea5e7b59665d81a4a703138614f9691cd5af9694c90f6b02523"},
		{"protocols", func() (artifact, error) { return ProtocolComparison(o, nil) }, "7fc662671c2cd86087368f4f75d3f9fe8d278895072fb982297e989c3e82d61f"},
		{"vr", func() (artifact, error) { return VictimReplication(o) }, "be98539405144fa92730ae388e8f21f2fa109f3c656d8fd620ebeabf43d71eb1"},
		{"scaling", func() (artifact, error) { return PerformanceScaling(o, []int{4, 16}) }, "90dc87bf50f8bec1a96175bfeef55d0c57194d5c236c4efb56bc6d72168825b3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(a); err != nil {
				t.Fatal(err)
			}
			if err := a.Render(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}
