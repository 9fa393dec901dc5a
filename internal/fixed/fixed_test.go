package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantizeRoundTrip(t *testing.T) {
	cases := []complex128{0, 0.5 + 0.25i, -1 + 1i, 0.999 - 0.999i}
	for _, c := range cases {
		q := Quantize(c)
		back := q.Complex()
		if math.Abs(real(back)-real(c)) > 1.0/FullScale ||
			math.Abs(imag(back)-imag(c)) > 2.0/FullScale {
			t.Errorf("Quantize(%v) round-trips to %v", c, back)
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	q := Quantize(complex(10, -10))
	if q.I != 32767 || q.Q != -32768 {
		t.Errorf("saturation gave %+v", q)
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	f := func(re, im float64) bool {
		re = math.Mod(re, 1)
		im = math.Mod(im, 1)
		if math.IsNaN(re) || math.IsNaN(im) {
			return true
		}
		q := Quantize(complex(re, im))
		back := q.Complex()
		return math.Abs(real(back)-re) <= 1.0/FullScale+1e-12 &&
			math.Abs(imag(back)-im) <= 1.0/FullScale+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignBit(t *testing.T) {
	cases := []struct {
		s    IQ
		i, q int8
	}{
		{IQ{100, -100}, 1, -1},
		{IQ{0, 0}, 1, 1},
		{IQ{-1, 1}, -1, 1},
		{IQ{-32768, 32767}, -1, 1},
	}
	for _, c := range cases {
		i, q := c.s.SignBit()
		if i != c.i || q != c.q {
			t.Errorf("SignBit(%+v) = %d,%d want %d,%d", c.s, i, q, c.i, c.q)
		}
	}
}

func TestEnergy(t *testing.T) {
	s := IQ{3, 4}
	if e := s.Energy(); e != 25 {
		t.Errorf("Energy = %d, want 25", e)
	}
	// Worst case must not overflow.
	w := IQ{-32768, -32768}
	if e := w.Energy(); e != 2*32768*32768 {
		t.Errorf("worst-case energy = %d", e)
	}
}

func TestCoeff3Clamp(t *testing.T) {
	if NewCoeff3(10) != Coeff3Max || NewCoeff3(-10) != Coeff3Min {
		t.Error("NewCoeff3 must clamp")
	}
	if NewCoeff3(2) != 2 {
		t.Error("in-range value altered")
	}
}

func TestQuantizeCoeff(t *testing.T) {
	cases := []struct {
		in   float64
		want Coeff3
	}{
		{1, 3}, {-1, -3}, {0, 0}, {0.5, 2} /* round(1.5)=2 */, {-0.34, -1},
	}
	for _, c := range cases {
		if got := QuantizeCoeff(c.in); got != c.want {
			t.Errorf("QuantizeCoeff(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCoeff3PackUnpackProperty(t *testing.T) {
	f := func(v int8) bool {
		c := NewCoeff3(int(v))
		return UnpackCoeff3(c.Pack()) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeBufferLength(t *testing.T) {
	if q := Quantize(1); q.I != 32767 {
		t.Errorf("Quantize(1) = %+v", q)
	}
	if q := Quantize(-1i); q.Q != -32767 {
		t.Errorf("Quantize(-1i) = %+v", q)
	}
}

func TestCoeff3String(t *testing.T) {
	if Coeff3(3).String() != "+3" || Coeff3(-4).String() != "-4" {
		t.Error("Coeff3 String formatting wrong")
	}
}
