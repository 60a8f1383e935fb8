package mpexec

import (
	"reflect"
	"testing"

	"blmr/internal/core"
	"blmr/internal/exec"
	"blmr/internal/shuffle"
)

// populatedOptions sets every field of exec.Options to a distinct non-zero
// value by reflection, so a field added later is populated here without
// anyone remembering to.
func populatedOptions(t *testing.T) exec.Options {
	t.Helper()
	var o exec.Options
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint8:
			f.SetUint(uint64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(0.25 + float64(i))
		case reflect.String:
			f.SetString("set")
		default:
			t.Fatalf("exec.Options.%s has kind %v: teach populatedOptions (and putOpts) about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return o
}

// TestOptsRoundTrip: the one exec.Options wire codec carries every field
// through both of its users, the 'J' job-open frame and the journal's 'a'
// admit record. The only fields that may differ are the two putOpts
// documents: Transport (always TCP across processes) and SpillDir (local to
// the reading side). A new Options field that putOpts/opts do not carry
// comes back zero and fails here.
func TestOptsRoundTrip(t *testing.T) {
	sent := populatedOptions(t)
	want := sent
	want.Transport = shuffle.TCP

	want.SpillDir = "/worker/local"
	id, name, got, err := decodeJobStart(encodeJobStart(7, "wordcount", sent), exec.Options{SpillDir: want.SpillDir})
	if err != nil || id != 7 || name != "wordcount" {
		t.Fatalf("'J' frame: id=%d name=%q err=%v", id, name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("'J' frame dropped a field:\n got %+v\nwant %+v", got, want)
	}

	want.SpillDir = ""
	input := []core.Record{{Key: "k", Value: "v"}}
	live, _, _, err := replayJournal([][]byte{encodeJournalAdmit(3, "wordcount", sent, input)})
	if err != nil || len(live) != 1 {
		t.Fatalf("journal admit: %d live jobs, err=%v", len(live), err)
	}
	if !reflect.DeepEqual(live[0].opts, want) {
		t.Fatalf("journal admit dropped a field:\n got %+v\nwant %+v", live[0].opts, want)
	}
	if !reflect.DeepEqual(live[0].input, input) {
		t.Fatalf("journal admit input: %v", live[0].input)
	}
}
