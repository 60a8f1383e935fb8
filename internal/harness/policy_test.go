package harness

import "testing"

// TestPolicySweep: the load-aware policies must never lose to the
// round-robin stripe, and must strictly win once the stream is skewed
// enough that worker 0 serializes a pile of maps.
func TestPolicySweep(t *testing.T) {
	sw := goldenSweep(t, "policy")
	if len(sw.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(sw.Series))
	}
	rr := sw.Series[0]
	for _, ser := range sw.Series {
		for i, n := range ser.Note {
			if n != "" {
				t.Fatalf("%s: skew %g failed", ser.Label, ser.X[i])
			}
		}
	}
	for _, ser := range sw.Series[1:] {
		for i := range rr.Y {
			if ser.Y[i] > rr.Y[i]+1e-9 {
				t.Fatalf("%s loses to round-robin at skew %g: %.3f vs %.3f",
					ser.Label, rr.X[i], ser.Y[i], rr.Y[i])
			}
		}
		last := len(rr.Y) - 1
		if ser.Y[last] >= rr.Y[last] {
			t.Fatalf("%s does not beat round-robin at the deepest skew: %.3f vs %.3f",
				ser.Label, ser.Y[last], rr.Y[last])
		}
	}
	t.Logf("\n%s", sw.Render())
}

// TestPolicyPrediction: the parity estimate the real engine is compared
// against must be internally consistent and predict a real gap on the
// canonical skewed stream.
func TestPolicyPrediction(t *testing.T) {
	found := false
	for _, row := range Parity {
		if row.Name != "policy" {
			continue
		}
		found = true
		ratio, detail, err := row.Predict()
		if err != nil {
			t.Fatal(err)
		}
		if ratio <= 0 || ratio >= 1 {
			t.Fatalf("least-loaded predicted no win on the skewed stream: ratio %.3f (%s)", ratio, detail)
		}
	}
	if !found {
		t.Fatal("Parity has no policy row")
	}
	if _, err := PolicyStreamMakespan([]int{1}, 3, "bogus"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

// TestParityTable: every row predicts, CheckParity accepts a measurement on
// the prediction and rejects one beyond the row's band, and an unknown row
// is an error, not a pass.
func TestParityTable(t *testing.T) {
	for _, row := range Parity {
		pred, _, err := row.Predict()
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		if _, err := CheckParity(row.Name, pred); err != nil {
			t.Fatalf("%s: a measurement equal to the prediction was rejected: %v", row.Name, err)
		}
		if _, err := CheckParity(row.Name, pred+row.Tolerance+0.01); err == nil {
			t.Fatalf("%s: a measurement beyond the band was accepted", row.Name)
		}
	}
	if _, err := CheckParity("no-such-row", 0); err == nil {
		t.Fatal("unknown row must error")
	}
}
