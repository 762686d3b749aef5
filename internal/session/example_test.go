package session_test

import (
	"fmt"

	"scmp/internal/des"
	"scmp/internal/session"
)

// Example walks the m-router's service database through a group's life:
// the group adopted, a member coming and going (billable on-time), and a
// session with traffic records.
func Example() {
	sched := des.New()
	mgr := session.NewManager(sched)
	const g = 0xE0000000
	mgr.Adopt(g)

	sched.RunUntil(10)
	_ = mgr.MemberJoined(g, 5)
	sched.RunUntil(40)
	_ = mgr.MemberLeft(g, 5)
	fmt.Println("member 5 on-time:", mgr.MemberOnTime(g, 5), "s")

	id, _ := mgr.StartSession(g)
	_ = mgr.RecordTraffic(g, id, 1500)
	_ = mgr.RecordTraffic(g, id, 1500)
	info, _ := mgr.Session(g, id)
	fmt.Println("session packets:", info.Packets, "bytes:", info.Bytes)
	fmt.Println("log records:", len(mgr.Log()))
	// Output:
	// member 5 on-time: 30 s
	// session packets: 2 bytes: 3000
	// log records: 4
}
