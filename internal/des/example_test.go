package des_test

import (
	"fmt"

	"scmp/internal/des"
)

func ExampleScheduler() {
	s := des.New()
	s.At(2, func() { fmt.Println("world at", s.Now()) })
	s.At(1, func() { fmt.Println("hello at", s.Now()) })
	s.At(s.Now()+3, func() { fmt.Println("done at", s.Now()) })
	s.Run()
	// Output:
	// hello at 1
	// world at 2
	// done at 3
}

func ExampleScheduler_RunUntil() {
	s := des.New()
	for t := 1; t <= 5; t++ {
		t := t
		s.At(des.Time(t), func() { fmt.Println("tick", t) })
	}
	s.RunUntil(3)
	fmt.Println("paused at", s.Now())
	// Output:
	// tick 1
	// tick 2
	// tick 3
	// paused at 3
}

// printer is a des.Sink printing the timers it receives.
type printer struct{}

func (printer) SinkEvent(op uint8, a, _ int32, _ any, _ bool) { fmt.Println("timer", op, a) }

func ExampleScheduler_Stop() {
	s := des.New()
	keep := s.AtTimer(1, printer{}, 1, 10, 0)
	drop := s.AtTimer(2, printer{}, 2, 20, 0)
	s.Stop(drop)
	s.Run()
	fmt.Println("armed:", s.Armed(keep), s.Armed(drop))
	// Output:
	// timer 1 10
	// armed: false false
}
