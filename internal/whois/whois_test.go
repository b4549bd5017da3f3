package whois

import "testing"

func testRegistry() *Registry {
	r := NewRegistry()
	r.Register(Record{Prefix: "54.231", Owner: "Amazon.com, Inc.", Netname: "AMAZON-AES"})
	r.Register(Record{Prefix: "108.160", Owner: "Dropbox, Inc.", Netname: "DROPBOX"})
	r.Register(Record{Prefix: "134.170", Owner: "Microsoft Corp", Netname: "MICROSOFT"})
	return r
}

func TestLookup(t *testing.T) {
	r := testRegistry()
	rec, ok := r.Lookup("54.231.12.7")
	if !ok || rec.Owner != "Amazon.com, Inc." {
		t.Fatalf("Lookup = %+v, %v", rec, ok)
	}
	if _, ok := r.Lookup("9.9.9.9"); ok {
		t.Fatal("unregistered space matched")
	}
	if _, ok := r.Lookup("not-an-ip"); ok {
		t.Fatal("malformed address matched")
	}
}

func TestRegisterReplace(t *testing.T) {
	r := testRegistry()
	r.Register(Record{Prefix: "54.231", Owner: "Someone Else"})
	rec, _ := r.Lookup("54.231.0.1")
	if rec.Owner != "Someone Else" {
		t.Fatal("Register did not replace")
	}
}
