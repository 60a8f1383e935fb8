package harness

import "testing"

// TestCompressionTradeoffSweep: with the calibrated ratios and an LZ-class
// CompressDelay, sealed-run compression must speed an I/O-bound
// run-exchange WordCount up monotonically — none >= block >= delta — in
// both modes (the higher-ratio codec always wins while the CPU price stays
// below the I/O savings). Small slack for discrete-event reordering.
func TestCompressionTradeoffSweep(t *testing.T) {
	const slack = 1.005
	sw := goldenSweep(t, "compress")
	if len(sw.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(sw.Series))
	}
	for _, ser := range sw.Series {
		if len(ser.Y) != 3 {
			t.Fatalf("%s: want 3 codecs, got %d", ser.Label, len(ser.Y))
		}
		if ser.Y[1] > ser.Y[0]*slack || ser.Y[2] > ser.Y[1]*slack {
			t.Fatalf("%s: compression did not pay: none=%.1f block=%.1f delta=%.1f",
				ser.Label, ser.Y[0], ser.Y[1], ser.Y[2])
		}
	}
	t.Log("\n" + sw.Render())
}
