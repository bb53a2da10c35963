package simulate

import (
	"reflect"
	"testing"
)

// TestWorkerFieldsListed holds forkWorker to its share list: every Simulator
// field is on exactly one of workerShared and workerOwned, and the lists say
// what forkWorker does. A shared reference field points at the authoritative
// simulator's state; an owned one never aliases it. A new field fails here
// until someone decides whether group workers share it.
func TestWorkerFieldsListed(t *testing.T) {
	list := map[string]string{}
	for _, name := range workerShared {
		list[name] = "shared"
	}
	for _, name := range workerOwned {
		if list[name] != "" {
			t.Errorf("field %s is on both lists", name)
		}
		list[name] = "owned"
	}
	typ := reflect.TypeFor[Simulator]()
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		if list[name] == "" {
			t.Errorf("Simulator.%s is on neither workerShared nor workerOwned: decide whether forkWorker shares it", name)
		}
		delete(list, name)
	}
	for name := range list {
		t.Errorf("%s is listed but is no Simulator field", name)
	}

	cfg, fns := twoGroupFixture(t)
	s := New(cfg, fns)
	s.enableIndex()
	for _, fn := range fns {
		s.rt(fn)
	}
	w := s.forkWorker()
	sv, wv := reflect.ValueOf(s).Elem(), reflect.ValueOf(w).Elem()
	ref := func(v reflect.Value) (uintptr, bool) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice:
			return v.Pointer(), !v.IsNil()
		}
		return 0, false
	}
	for _, name := range workerShared {
		if a, ok := ref(sv.FieldByName(name)); ok {
			if b, _ := ref(wv.FieldByName(name)); a != b {
				t.Errorf("workerShared lists %s, but the worker holds its own", name)
			}
		}
	}
	for _, name := range workerOwned {
		a, okA := ref(sv.FieldByName(name))
		b, okB := ref(wv.FieldByName(name))
		if okA && okB && a == b {
			t.Errorf("workerOwned lists %s, but the worker shares the simulator's", name)
		}
	}
}
