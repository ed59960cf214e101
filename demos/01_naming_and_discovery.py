"""Publish a handful of objects and find them by what they are.

Walks the two-layer naming model end to end: informational names built
from defining attributes, physical names minted per domain, and
attribute-based discovery that returns the pointers connecting the two.
"""

from oonsim import (
    AttributeKind,
    Eq,
    ObjectClass,
    ObjectSpec,
    Prefix,
    Query,
    World,
    format_pname,
)

BOOK = ObjectClass(
    class_name="book",
    defining_attributes=(("title", AttributeKind.TEXT),
                         ("author", AttributeKind.TEXT)),
    extra_description_attributes=(("pages", AttributeKind.INTEGER),),
)

LIBRARY = [
    ("foundation", "asimov", 255, "campus"),
    ("foundation and empire", "asimov", 247, "campus"),
    ("rendezvous with rama", "clarke", 243, "downtown"),
    ("the dispossessed", "le guin", 341, "downtown"),
]


def main():
    world = World()
    world.add_class(BOOK)
    world.add_domain("campus")
    world.add_domain("downtown")
    world.connect_domains("campus", "downtown", latency=1)
    # 2x2 grid: titles and authors each split at "n", four relay nodes
    world.add_partition("book", {"title": ["n"], "author": ["n"]}, 4)

    print("== publishing ==")
    for i, (title, author, pages, domain) in enumerate(LIBRARY):
        oid = f"book{i}"
        world.add_object(ObjectSpec(oid, "book",
                                    {"title": title, "author": author,
                                     "pages": pages}, domain))
        _, pname = world.instantiate(oid)
        world.publish(oid)
        print(f"  {title!r} lives in {domain} as {format_pname(pname)}")

    print("\n== discovery: everything by asimov ==")
    res = world.discover(Query("book", {"author": Eq("asimov")}))
    for iname, pointers in res.items:
        print(f"  {iname.values} -> {[format_pname(p) for p in pointers]}")

    print("\n== discovery: titles starting with 'the' ==")
    res = world.discover(Query("book", {"title": Prefix("the")}))
    for iname, pointers in res.items:
        print(f"  {iname.values} -> {[format_pname(p) for p in pointers]}")

    print(f"\nmessage types sent (no routing updates): {sorted(world.metrics.sent)}")


if __name__ == "__main__":
    main()
