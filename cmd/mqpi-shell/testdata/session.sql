\help
\tables
CREATE TABLE part (partkey INT, name TEXT, price FLOAT, active BOOLEAN);
CREATE TABLE item (partkey INT, qty INT, extprice DOUBLE);
CREATE INDEX item_pk ON item (partkey);
INSERT INTO part VALUES (1, 'bolt', 2.5, TRUE), (2, 'nut', 0.75, FALSE),
  (3, 'gear', 12.0, TRUE), (4, 'cog', NULL, NULL);
INSERT INTO item VALUES (1, 10, 25.0), (1, 4, 10.0), (2, 100, 75.0),
  (3, 1, 12.0), (3, 2, 24.0), (3, 3, 36.0);
SELECT * FROM part;
SELECT name, price * 2 AS doubled FROM part WHERE price BETWEEN 1 AND 20 ORDER BY doubled DESC;
SELECT p.name, i.qty FROM part p, item i WHERE p.partkey = i.partkey AND i.qty > 1 ORDER BY p.name, i.qty;
SELECT * FROM item WHERE partkey = 3;
SELECT partkey, COUNT(*), SUM(qty), AVG(extprice), MIN(qty), MAX(qty) FROM item GROUP BY partkey HAVING COUNT(*) > 1 ORDER BY partkey;
SELECT DISTINCT partkey FROM item ORDER BY partkey LIMIT 2;
SELECT name FROM part WHERE price IS NULL OR NOT active;
SELECT p.name FROM part p WHERE p.price * 3 > (SELECT SUM(i.extprice) / SUM(i.qty) FROM item i WHERE i.partkey = p.partkey);
SELECT p.name FROM part p WHERE NOT EXISTS (SELECT * FROM item i WHERE i.partkey = p.partkey);
SELECT COUNT(*) FROM item WHERE -qty < -1 AND extprice <> 25.0;
\explain SELECT p.name FROM part p, item i WHERE p.partkey = i.partkey;
\explain SELECT DISTINCT partkey FROM item WHERE partkey = 3 ORDER BY partkey LIMIT 2;
\explain SELECT partkey, SUM(qty) FROM item GROUP BY partkey HAVING SUM(qty) > 5;
SELECT nosuch FROM part;
\save session.snap
\wal session.wal
CREATE TABLE extra (k INT, flag BOOLEAN);
CREATE INDEX extra_k ON extra (k);
INSERT INTO extra VALUES (1, TRUE), (2, FALSE);
CREATE TABLE scratch (x INT);
DROP TABLE scratch;
INSERT INTO part VALUES (5, 'spring', 0.1, TRUE);
UPDATE part SET price = price + 1 WHERE active;
DELETE FROM item WHERE qty > 50;
SELECT name, price FROM part WHERE active ORDER BY part.price;
\recover session.snap session.wal
SELECT name, price, active FROM part ORDER BY part.name;
SELECT COUNT(*) FROM item;
SELECT * FROM extra WHERE k = 1;
\tables
\load session.snap
SELECT name, price, active FROM part ORDER BY part.name;
SELECT COUNT(*) FROM item;
SELECT * FROM extra;
\demo
\tables
\nosuch
\quit
